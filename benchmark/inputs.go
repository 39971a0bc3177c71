package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"repro/internal/docstore"
	"repro/internal/workload"
)

const (
	conceptDim = 32  // what cmd/agora-node and core.New use
	numTopics  = 16  // every topic the generator has
	zipfSkew   = 1.1 // topic popularity in the corpus
)

// inputs is everything a workload feeds the program, made from the seed
// alone: the same seed gives the same inputs, and hash says which.
type inputs struct {
	gen    *workload.Generator
	corpus []workload.Doc       // documents with their ground-truth topic
	churn  []*docstore.Document // fixed IDs, so a second pass replaces
	users  []workload.User
	pool   []string // query pool, the same number of queries about every topic
	draw   *rand.Rand
	hash   uint64
}

// newInputs generates a Zipf-skewed corpus, a churn pool, users and a query
// pool, in that fixed order, and seeds the order queries are drawn in.
//
// Queries are spread evenly over the topics and drawn uniformly. Drawn
// Zipf(1.1) from per-user queries, three queries are a third of all asks, and
// whichever topics the seed gives those three decide the medians: between
// seeds ask_p50_ms moved by 27% on scatter_read, where the same seed repeats
// within 4%. What a query costs depends on its topic (the hot shard holds half
// the corpus), so the topic mix is held fixed and the seed varies the rest.
func newInputs(seed int64, docs, churn, users, pool int) *inputs {
	g := workload.NewGenerator(seed, conceptDim, numTopics)
	in := &inputs{gen: g}
	in.corpus = g.GenCorpus(docs, zipfSkew, int64(time.Hour))
	for i, d := range g.GenCorpus(churn, zipfSkew, 0) {
		d.Doc.ID = fmt.Sprintf("churn%05d", i)
		in.churn = append(in.churn, d.Doc)
	}
	in.users = g.GenUsers(users)
	for i := 0; i < pool; i++ {
		in.pool = append(in.pool, g.GenText(i%numTopics, 4))
	}
	in.draw = rand.New(rand.NewSource(seed))

	h := fnv.New64a()
	var buf [8]byte
	str := func(s string) {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		h.Write([]byte(s))
	}
	for _, set := range [][]*docstore.Document{docsOf(in.corpus), in.churn} {
		for _, d := range set {
			str(d.ID)
			str(d.Title)
			str(d.Text)
			for _, t := range d.Topics {
				str(t)
			}
			for _, c := range d.Concept {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c))
				h.Write(buf[:])
			}
		}
	}
	for _, u := range in.users {
		str(u.ID)
		str(fmt.Sprint(u.Interests, u.Archetype))
	}
	for _, q := range in.pool {
		str(q)
	}
	// The draw order is part of the input: hash its head from a twin source,
	// leaving the real one untouched.
	twin := rand.New(rand.NewSource(seed))
	for i := 0; i < 1024; i++ {
		binary.LittleEndian.PutUint64(buf[:], twin.Uint64())
		h.Write(buf[:])
	}
	in.hash = h.Sum64()
	return in
}

func docsOf(corpus []workload.Doc) []*docstore.Document {
	docs := make([]*docstore.Document, len(corpus))
	for i, d := range corpus {
		docs[i] = d.Doc
	}
	return docs
}

// nextQuery draws the next query from the pool.
func (in *inputs) nextQuery() string { return in.pool[in.draw.Intn(len(in.pool))] }

// userBytes is the size of what a user put into a document: the denominator
// of every bytes-per-user-byte ratio.
func userBytes(d *docstore.Document) int64 {
	n := len(d.ID) + len(d.Title) + len(d.Text) + len(d.Provenance) + 8*len(d.Concept) + 8
	for _, t := range d.Topics {
		n += len(t)
	}
	return int64(n)
}
