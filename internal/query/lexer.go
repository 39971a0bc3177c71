// Package query implements AQL, the small query language agora consumers
// speak, along with query decomposition into per-source subqueries and
// top-k result merging. An AQL query looks like:
//
//	FIND catalogs
//	WHERE text ~ "byzantine gold ring"
//	  AND topic = "jewelry"
//	  AND similar > 0.7
//	  AND fresh < 7d
//	TOP 10
//	QOS completeness >= 0.8, latency <= 2s, price <= 5
//
// The similar predicate applies to the concept vector attached to the query
// at execution time (e.g. extracted from an image Iris is holding).
package query

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokNumber
	tokDuration
	tokOp // ~ = < > <= >= ,
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// SyntaxError reports a lexing or parsing failure with position context.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("query: syntax error at %d: %s", e.Pos, e.Msg)
}

// lex appends input's tokens to toks, ending with tokEOF. A token's text is
// a substring of input or a keyword's constant where it can be.
func lex(toks []token, input string) ([]token, error) {
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '"':
			j, escaped := i+1, false
			for j < n && input[j] != '"' {
				if input[j] == '\\' && j+1 < n {
					j, escaped = j+1, true
				}
				j++
			}
			if j >= n {
				return nil, &SyntaxError{Pos: i, Msg: "unterminated string"}
			}
			text := input[i+1 : j]
			if escaped {
				text = unescape(text)
			}
			toks = append(toks, token{tokString, text, i})
			i = j + 1
		case c == ',' || c == '~' || c == '=':
			toks = append(toks, token{tokOp, input[i : i+1], i})
			i++
		case c == '<' || c == '>':
			j := i + 1
			if j < n && input[j] == '=' {
				j++
			}
			toks = append(toks, token{tokOp, input[i:j], j - 1})
			i = j
		case c >= '0' && c <= '9' || c == '.':
			j := i
			for j < n && (input[j] >= '0' && input[j] <= '9' || input[j] == '.') {
				j++
			}
			num := input[i:j]
			// Duration suffix?
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
			toks = append(toks, token{tokIdent, lowerIdent(input[i:j]), i})
			i = j
		default:
			return nil, &SyntaxError{Pos: i, Msg: fmt.Sprintf("unexpected character %q", rune(c))}
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

// unescape drops each backslash of a quoted string's body, keeping the byte
// it escapes.
func unescape(s string) string {
	b := make([]byte, 0, len(s))
	for k := 0; k < len(s); k++ {
		if s[k] == '\\' && k+1 < len(s) {
			k++
		}
		b = append(b, s[k])
	}
	return string(b)
}

// keywords are the identifiers the parser reads.
var keywords = []string{"find", "documents", "where", "and", "not", "top", "qos",
	"text", "topic", "source", "similar", "fresh", "latency", "freshness", "completeness", "trust", "price",
	"articles", "holdings", "catalogs", "magazines", "annotations", "theses"}

// lowerIdent is strings.ToLower of an identifier, but a keyword in capitals
// is the keyword's constant. Only U+212A and U+017F fold to ASCII letters,
// and neither can be in an identifier (each holds a byte that is not a
// letter), so a keyword's fold is as long as the keyword.
func lowerIdent(s string) string {
	for _, kw := range keywords {
		if len(s) == len(kw) && strings.EqualFold(s, kw) {
			return kw
		}
	}
	return strings.ToLower(s)
}

func isLetterByte(b byte) bool {
	return unicode.IsLetter(rune(b))
}
