package query

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/docstore"
)

// referenceMerge is Merge as it was before it deduplicated without a map: an
// id-keyed map of the best normalized entry, the first seen of equal scores.
func referenceMerge(lists [][]Result, topK int) []Result {
	best := make(map[string]Result)
	for _, list := range lists {
		var max float64
		for _, r := range list {
			if r.Score > max {
				max = r.Score
			}
		}
		for _, r := range list {
			score := r.Score
			if max > 0 {
				score /= max
			}
			cur, ok := best[r.Doc.ID]
			if !ok || score > cur.Score {
				r.Score = score
				best[r.Doc.ID] = r
			}
		}
	}
	out := make([]Result, 0, len(best))
	for _, r := range best {
		out = append(out, r)
	}
	SortResults(out)
	if topK > 0 && len(out) > topK {
		out = out[:topK]
	}
	return out
}

// mergeLists draws per-source result lists over a small id space, so that
// ids repeat across lists and within one. Scores come from a short scale
// multiplied by a per-list factor, so equal normalized scores from different
// sources are common; one list in eight scores all zero. Each list holds its
// own Document per id, so which entry a merge kept shows in the pointer.
func mergeLists(r *rand.Rand) [][]Result {
	lists := make([][]Result, r.Intn(6))
	for i := range lists {
		factor := float64(1 + r.Intn(3))
		zero := r.Intn(8) == 0
		docs := map[string]*docstore.Document{}
		list := make([]Result, r.Intn(12))
		for j := range list {
			id := fmt.Sprintf("d%02d", r.Intn(16))
			if docs[id] == nil {
				docs[id] = &docstore.Document{ID: id}
			}
			score := factor * float64(r.Intn(4))
			if zero {
				score = 0
			}
			list[j] = Result{Hit: docstore.Hit{Doc: docs[id], Score: score}, Source: fmt.Sprintf("src%d", i)}
		}
		lists[i] = list
	}
	return lists
}

// TestMergeMatchesReference holds Merge to the map-based reference on seeded
// lists: the same entries, Document pointer and Source included, in the same
// order, at every topK.
func TestMergeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ties := 0
	for trial := 0; trial < 3000; trial++ {
		lists := mergeLists(r)
		for _, k := range []int{-1, 0, 1, 3, 10, 100} {
			got, want := Merge(lists, k), referenceMerge(lists, k)
			if len(got) != len(want) {
				t.Fatalf("trial %d, topK %d: %d results, the reference %d", trial, k, len(got), len(want))
			}
			for i := range got {
				if got[i].Doc != want[i].Doc || got[i].Score != want[i].Score || got[i].Source != want[i].Source {
					t.Fatalf("trial %d, topK %d, rank %d: %s %v %s (%p), the reference %s %v %s (%p)", trial, k, i,
						got[i].Doc.ID, got[i].Score, got[i].Source, got[i].Doc, want[i].Doc.ID, want[i].Score, want[i].Source, want[i].Doc)
				}
			}
		}
		ties += crossSourceTies(lists)
	}
	if ties == 0 {
		t.Fatal("no id met equal normalized scores from two sources")
	}
}

// crossSourceTies counts ids whose best normalized score is reached in more
// than one list: the cases where the first-seen Source must be kept.
func crossSourceTies(lists [][]Result) int {
	type best struct {
		score float64
		lists int
	}
	seen := map[string]*best{}
	for _, list := range lists {
		var max float64
		for _, r := range list {
			max = math.Max(max, r.Score)
		}
		top := map[string]float64{}
		for _, r := range list {
			s := r.Score
			if max > 0 {
				s /= max
			}
			if v, ok := top[r.Doc.ID]; !ok || s > v {
				top[r.Doc.ID] = s
			}
		}
		for id, s := range top {
			b := seen[id]
			switch {
			case b == nil || s > b.score:
				seen[id] = &best{s, 1}
			case s == b.score:
				b.lists++
			}
		}
	}
	n := 0
	for _, b := range seen {
		if b.lists > 1 {
			n++
		}
	}
	return n
}

// TestMergeAllocatesOnce pins Merge to the slice it returns.
func TestMergeAllocatesOnce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var lists [][]Result
	for len(lists) < 3 {
		lists = mergeLists(r)
	}
	if got := testing.AllocsPerRun(100, func() { Merge(lists, 10) }); got != 1 {
		t.Fatalf("%v allocations per merge", got)
	}
}

// TestParseAllocatesTheQueryOnly pins Parse of the shape a market ask sends:
// the query is its one allocation — the tokens live in Parse's frame, the
// text is a substring of the input, and a capitalized keyword lexes to its
// constant.
func TestParseAllocatesTheQueryOnly(t *testing.T) {
	in := `FIND documents WHERE text ~ "byzantine gold filigree ring" TOP 10`
	var q *Query
	got := testing.AllocsPerRun(100, func() { q, _ = Parse(in) })
	if got != 1 || q.Text != "byzantine gold filigree ring" || q.TopK != 10 {
		t.Fatalf("%v allocations, parsed %+v", got, q)
	}
}

// referenceLex is lex as it was before its tokens became substrings and
// constants: a strings.Builder per quoted string, strings.ToLower per identifier,
// string concatenation per operator and duration.
func referenceLex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '"':
			j := i + 1
			var sb strings.Builder
			for j < n && input[j] != '"' {
				if input[j] == '\\' && j+1 < n {
					j++
				}
				sb.WriteByte(input[j])
				j++
			}
			if j >= n {
				return nil, &SyntaxError{Pos: i, Msg: "unterminated string"}
			}
			toks = append(toks, token{tokString, sb.String(), i})
			i = j + 1
		case c == ',' || c == '~' || c == '=':
			toks = append(toks, token{tokOp, string(c), i})
			i++
		case c == '<' || c == '>':
			op := string(c)
			if i+1 < n && input[i+1] == '=' {
				op += "="
				i++
			}
			toks = append(toks, token{tokOp, op, i})
			i++
		case c >= '0' && c <= '9' || c == '.':
			j := i
			for j < n && (input[j] >= '0' && input[j] <= '9' || input[j] == '.') {
				j++
			}
			num := input[i:j]
			k := j
			for k < n && isLetterByte(input[k]) {
				k++
			}
			if k > j {
				suffix := strings.ToLower(input[j:k])
				switch suffix {
				case "ms", "s", "m", "h", "d", "w":
					toks = append(toks, token{tokDuration, num + suffix, i})
					i = k
					continue
				default:
					return nil, &SyntaxError{Pos: j, Msg: fmt.Sprintf("unknown duration unit %q", suffix)}
				}
			}
			toks = append(toks, token{tokNumber, num, i})
			i = j
		case isLetterByte(c):
			j := i
			for j < n && (isLetterByte(input[j]) || input[j] >= '0' && input[j] <= '9' || input[j] == '_') {
				j++
			}
			toks = append(toks, token{tokIdent, strings.ToLower(input[i:j]), i})
			i = j
		default:
			return nil, &SyntaxError{Pos: i, Msg: fmt.Sprintf("unexpected character %q", rune(c))}
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

// lexMatchesReference reports how lex and referenceLex differ on input, or
// "" when they yield the same tokens or the same SyntaxError.
func lexMatchesReference(input string) string {
	got, gerr := lex(nil, input)
	want, werr := referenceLex(input)
	if (gerr == nil) != (werr == nil) {
		return fmt.Sprintf("error %v, the reference %v", gerr, werr)
	}
	if gerr != nil {
		var g, w *SyntaxError
		if !errors.As(gerr, &g) || !errors.As(werr, &w) || *g != *w {
			return fmt.Sprintf("error %v, the reference %v", gerr, werr)
		}
		return ""
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("tokens %+v, the reference %+v", got, want)
	}
	return ""
}

// lexSeeds pin the lexer's edges: escapes (of a quote, of a backslash, one
// at the end), capitals in keywords, identifiers and duration units, both
// two-byte operators and their position, Latin-1 letter bytes and invalid
// UTF-8, and every error.
var lexSeeds = []string{
	`FIND documents WHERE text ~ "byzantine gold ring" TOP 10`,
	`find CATALOGS where Text ~ "a" and TOPIC = "x" and NOT source = "s" top 3 qos LATENCY <= 2S, price >= 1.5, Freshness <= 7D`,
	`FIND documents WHERE text ~ "say \"hi\" \\ there" TOP 1`,
	`text ~ "trailing \"`,
	`text ~ "ends with \\"`,
	`"unterminated`,
	`fresh < 10Ms AND fresh <3h AND fresh>=1w`,
	`similar > 0.7 similar>.5 1.2.3`,
	`5x`,
	`FiNd Documents WhErE TeXt ~ "" ToP 10`,
	"Façade \xc3\xa9t\xe9 \xff",
	"ÀÉÎ_9 ªµº",
	`@`,
	`a,b~c=d<e>f<=g>=h`,
	"find\tdocuments\r\nwhere",
	`averyveryverylongidentifier ANOTHERVERYLONGIDENTIFIER`,
}

func TestLexMatchesReference(t *testing.T) {
	for _, in := range lexSeeds {
		if diff := lexMatchesReference(in); diff != "" {
			t.Fatalf("%q: %s", in, diff)
		}
	}
	// Random strings over an alphabet dense in the seeds' cases.
	alphabet := []string{"\"", "\\", " ", "<", ">", "=", "~", ",", ".", "0", "7", "d", "D", "m", "S", "s", "x",
		"FIND", "where", "Top", "QOS", "_", "\xc3", "\xe9", "\xaa", "é", "@"}
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20000; trial++ {
		var sb strings.Builder
		for n := r.Intn(16); n > 0; n-- {
			sb.WriteString(alphabet[r.Intn(len(alphabet))])
		}
		if diff := lexMatchesReference(sb.String()); diff != "" {
			t.Fatalf("%q: %s", sb.String(), diff)
		}
	}
}

// FuzzParse holds the lexer of text from outside the process (agora-query,
// agora-repl) to the reference: the same tokens or the same SyntaxError; and
// Parse must not panic.
func FuzzParse(f *testing.F) {
	for _, in := range lexSeeds {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if diff := lexMatchesReference(in); diff != "" {
			t.Fatalf("%q: %s", in, diff)
		}
		_, _ = Parse(in)
	})
}
