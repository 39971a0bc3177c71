package query

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/docstore"
	"repro/internal/qos"
)

// Query is the parsed AST of an AQL query.
type Query struct {
	// Kind restricts the document kind; nil means any.
	Kind *docstore.Kind
	// Text is the free-text relevance predicate (empty = none).
	Text string
	// Topics must all be present on matching documents.
	Topics []string
	// NotTopics excludes documents carrying any of these topics.
	NotTopics []string
	// Sources restricts provenance (empty = any).
	Sources []string
	// NotSources excludes documents from these sources.
	NotSources []string
	// SimThreshold > 0 requires concept similarity above it (the concept
	// vector itself is supplied at execution time).
	SimThreshold float64
	// MaxAge > 0 requires documents newer than now - MaxAge.
	MaxAge time.Duration
	// TopK bounds the result size (default 10).
	TopK int
	// Want is the QoS requirement vector (zero fields = don't care).
	Want qos.Vector
}

var kindNames = map[string]docstore.Kind{
	"articles": docstore.KindArticle, "holdings": docstore.KindHolding,
	"catalogs": docstore.KindCatalogEntry, "magazines": docstore.KindMagazine,
	"annotations": docstore.KindAnnotation, "theses": docstore.KindThesis,
}

// Parse parses an AQL query string.
func Parse(input string) (*Query, error) {
	// The tokens die with the parse: a query of the usual size lexes into
	// this frame's buffer.
	var buf [24]token
	toks, err := lex(buf[:0], input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parseQuery()
}

// MustParse parses or panics; for tests and static queries.
func MustParse(input string) *Query {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) expectIdent(word string) error {
	t := p.next()
	if t.kind != tokIdent || t.text != word {
		return &SyntaxError{Pos: t.pos, Msg: fmt.Sprintf("expected %q, got %q", word, t.text)}
	}
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{TopK: 10}
	if err := p.expectIdent("find"); err != nil {
		return nil, err
	}
	// Optional kind.
	if t := p.cur(); t.kind == tokIdent {
		if k, ok := kindNames[t.text]; ok {
			kind := k // escapes only when the kind is named
			q.Kind = &kind
			p.next()
		} else if t.text == "documents" {
			p.next()
		}
	}
	for {
		t := p.cur()
		if t.kind == tokEOF {
			break
		}
		if t.kind != tokIdent {
			return nil, &SyntaxError{Pos: t.pos, Msg: fmt.Sprintf("expected clause keyword, got %q", t.text)}
		}
		switch t.text {
		case "where":
			p.next()
			if err := p.parseConds(q); err != nil {
				return nil, err
			}
		case "top":
			p.next()
			nt := p.next()
			if nt.kind != tokNumber {
				return nil, &SyntaxError{Pos: nt.pos, Msg: "TOP requires a number"}
			}
			k, err := strconv.Atoi(nt.text)
			if err != nil || k <= 0 {
				return nil, &SyntaxError{Pos: nt.pos, Msg: "TOP requires a positive integer"}
			}
			q.TopK = k
		case "qos":
			p.next()
			if err := p.parseQoS(q); err != nil {
				return nil, err
			}
		default:
			return nil, &SyntaxError{Pos: t.pos, Msg: fmt.Sprintf("unexpected keyword %q", t.text)}
		}
	}
	return q, nil
}

func (p *parser) parseConds(q *Query) error {
	for {
		if err := p.parseCond(q); err != nil {
			return err
		}
		if t := p.cur(); t.kind == tokIdent && t.text == "and" {
			p.next()
			continue
		}
		return nil
	}
}

func (p *parser) parseCond(q *Query) error {
	t := p.next()
	if t.kind != tokIdent {
		return &SyntaxError{Pos: t.pos, Msg: "expected condition field"}
	}
	if t.text == "not" {
		return p.parseNegatedCond(q)
	}
	switch t.text {
	case "text":
		if err := p.expectOp("~"); err != nil {
			return err
		}
		st := p.next()
		if st.kind != tokString {
			return &SyntaxError{Pos: st.pos, Msg: "text ~ requires a string"}
		}
		q.Text = st.text
	case "topic":
		if err := p.expectOp("="); err != nil {
			return err
		}
		st := p.next()
		if st.kind != tokString {
			return &SyntaxError{Pos: st.pos, Msg: "topic = requires a string"}
		}
		q.Topics = append(q.Topics, st.text)
	case "source":
		if err := p.expectOp("="); err != nil {
			return err
		}
		st := p.next()
		if st.kind != tokString {
			return &SyntaxError{Pos: st.pos, Msg: "source = requires a string"}
		}
		q.Sources = append(q.Sources, st.text)
	case "similar":
		if err := p.expectOp(">"); err != nil {
			return err
		}
		nt := p.next()
		if nt.kind != tokNumber {
			return &SyntaxError{Pos: nt.pos, Msg: "similar > requires a number"}
		}
		v, err := strconv.ParseFloat(nt.text, 64)
		if err != nil || v < 0 || v > 1 {
			return &SyntaxError{Pos: nt.pos, Msg: "similar threshold must be in [0,1]"}
		}
		q.SimThreshold = v
	case "fresh":
		if err := p.expectOp("<"); err != nil {
			return err
		}
		dt := p.next()
		if dt.kind != tokDuration {
			return &SyntaxError{Pos: dt.pos, Msg: "fresh < requires a duration (e.g. 7d)"}
		}
		d, err := parseDuration(dt.text)
		if err != nil {
			return &SyntaxError{Pos: dt.pos, Msg: err.Error()}
		}
		q.MaxAge = d
	default:
		return &SyntaxError{Pos: t.pos, Msg: fmt.Sprintf("unknown condition field %q", t.text)}
	}
	return nil
}

// parseNegatedCond handles NOT topic = "..." and NOT source = "...".
func (p *parser) parseNegatedCond(q *Query) error {
	t := p.next()
	if t.kind != tokIdent || (t.text != "topic" && t.text != "source") {
		return &SyntaxError{Pos: t.pos, Msg: "NOT supports only topic and source conditions"}
	}
	if err := p.expectOp("="); err != nil {
		return err
	}
	st := p.next()
	if st.kind != tokString {
		return &SyntaxError{Pos: st.pos, Msg: "NOT " + t.text + " = requires a string"}
	}
	if t.text == "topic" {
		q.NotTopics = append(q.NotTopics, st.text)
	} else {
		q.NotSources = append(q.NotSources, st.text)
	}
	return nil
}

func (p *parser) expectOp(op string) error {
	t := p.next()
	if t.kind != tokOp || t.text != op {
		return &SyntaxError{Pos: t.pos, Msg: fmt.Sprintf("expected %q, got %q", op, t.text)}
	}
	return nil
}

func (p *parser) parseQoS(q *Query) error {
	for {
		t := p.next()
		if t.kind != tokIdent {
			return &SyntaxError{Pos: t.pos, Msg: "expected QoS dimension"}
		}
		op := p.next()
		if op.kind != tokOp || (op.text != "<=" && op.text != ">=") {
			return &SyntaxError{Pos: op.pos, Msg: "QoS conditions use <= or >="}
		}
		val := p.next()
		switch t.text {
		case "latency":
			if val.kind != tokDuration {
				return &SyntaxError{Pos: val.pos, Msg: "latency needs a duration"}
			}
			d, err := parseDuration(val.text)
			if err != nil {
				return &SyntaxError{Pos: val.pos, Msg: err.Error()}
			}
			q.Want.Latency = d
		case "freshness":
			if val.kind != tokDuration {
				return &SyntaxError{Pos: val.pos, Msg: "freshness needs a duration"}
			}
			d, err := parseDuration(val.text)
			if err != nil {
				return &SyntaxError{Pos: val.pos, Msg: err.Error()}
			}
			q.Want.Freshness = d
		case "completeness", "trust", "price":
			if val.kind != tokNumber {
				return &SyntaxError{Pos: val.pos, Msg: t.text + " needs a number"}
			}
			v, err := strconv.ParseFloat(val.text, 64)
			if err != nil {
				return &SyntaxError{Pos: val.pos, Msg: err.Error()}
			}
			switch t.text {
			case "completeness":
				q.Want.Completeness = v
			case "trust":
				q.Want.Trust = v
			case "price":
				q.Want.Price = v
			}
		default:
			return &SyntaxError{Pos: t.pos, Msg: fmt.Sprintf("unknown QoS dimension %q", t.text)}
		}
		if c := p.cur(); c.kind == tokOp && c.text == "," {
			p.next()
			continue
		}
		return nil
	}
}

func parseDuration(s string) (time.Duration, error) {
	// Accept ms, s, m, h plus d and w which time.ParseDuration lacks.
	unitStart := len(s)
	for unitStart > 0 && !(s[unitStart-1] >= '0' && s[unitStart-1] <= '9' || s[unitStart-1] == '.') {
		unitStart--
	}
	num, unit := s[:unitStart], s[unitStart:]
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	switch unit {
	case "ms":
		return time.Duration(v * float64(time.Millisecond)), nil
	case "s":
		return time.Duration(v * float64(time.Second)), nil
	case "m":
		return time.Duration(v * float64(time.Minute)), nil
	case "h":
		return time.Duration(v * float64(time.Hour)), nil
	case "d":
		return time.Duration(v * 24 * float64(time.Hour)), nil
	case "w":
		return time.Duration(v * 7 * 24 * float64(time.Hour)), nil
	default:
		return 0, fmt.Errorf("unknown duration unit %q", unit)
	}
}

// formatDuration renders a duration in AQL's single-unit syntax, choosing
// the largest unit that divides evenly (falling back to fractional seconds).
func formatDuration(d time.Duration) string {
	units := []struct {
		u    time.Duration
		name string
	}{
		{7 * 24 * time.Hour, "w"},
		{24 * time.Hour, "d"},
		{time.Hour, "h"},
		{time.Minute, "m"},
		{time.Second, "s"},
		{time.Millisecond, "ms"},
	}
	for _, u := range units {
		if d >= u.u && d%u.u == 0 {
			return fmt.Sprintf("%d%s", d/u.u, u.name)
		}
	}
	return fmt.Sprintf("%g s", d.Seconds())
}

// String renders the query back to approximately canonical AQL.
func (q *Query) String() string {
	s := "FIND"
	if q.Kind != nil {
		for name, k := range kindNames {
			if k == *q.Kind {
				s += " " + name
				break
			}
		}
	} else {
		s += " documents"
	}
	var conds []string
	if q.Text != "" {
		conds = append(conds, fmt.Sprintf("text ~ %q", q.Text))
	}
	for _, t := range q.Topics {
		conds = append(conds, fmt.Sprintf("topic = %q", t))
	}
	for _, src := range q.Sources {
		conds = append(conds, fmt.Sprintf("source = %q", src))
	}
	for _, t := range q.NotTopics {
		conds = append(conds, fmt.Sprintf("NOT topic = %q", t))
	}
	for _, src := range q.NotSources {
		conds = append(conds, fmt.Sprintf("NOT source = %q", src))
	}
	if q.SimThreshold > 0 {
		conds = append(conds, fmt.Sprintf("similar > %g", q.SimThreshold))
	}
	if q.MaxAge > 0 {
		conds = append(conds, fmt.Sprintf("fresh < %s", formatDuration(q.MaxAge)))
	}
	if len(conds) > 0 {
		s += " WHERE " + conds[0]
		for _, c := range conds[1:] {
			s += " AND " + c
		}
	}
	s += fmt.Sprintf(" TOP %d", q.TopK)
	return s
}
