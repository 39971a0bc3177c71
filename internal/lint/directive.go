package lint

import (
	"go/token"
	"strings"
)

// allowPrefix is the suppression directive comment prefix. Full form:
//
//	//lint:allow <analyzer> <reason>
const allowPrefix = "//lint:allow"

// collectDirectives scans a parsed file's comments for //lint:allow
// directives and fills in the file's allow table. A directive covers its
// own line and the following line, so both placements work:
//
//	start := time.Now() //lint:allow wallclock telemetry-only stopwatch
//
//	//lint:allow wallclock telemetry-only stopwatch
//	start := time.Now()
//
// A directive naming an analyzer that does not exist suppresses nothing
// and is recorded separately: a typo like //lint:allow lockfre would
// otherwise silently leave the author believing the finding is covered.
func collectDirectives(fset *token.FileSet, f *File) {
	f.allows = map[int][]string{}
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, allowPrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, allowPrefix)
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				// Analyzer name or reason missing: every exemption must
				// say why it exists.
				f.malformed = append(f.malformed, c.Pos())
				continue
			}
			name := fields[0]
			if !knownAnalyzer(name) {
				f.unknown = append(f.unknown, unknownDirective{pos: c.Pos(), name: name})
				continue
			}
			line := fset.Position(c.Pos()).Line
			f.allows[line] = append(f.allows[line], name)
			f.allows[line+1] = append(f.allows[line+1], name)
		}
	}
}

// allowableAnalyzers are the names a directive may suppress. Kept as an
// explicit list (rather than derived from Analyzers) to avoid an
// initialization cycle; TestAnalyzerNameList pins it to the suite.
var allowableAnalyzers = []string{
	"wallclock", "goroutine", "checkederr",
	"lockfree", "atomics", "hotalloc", "snapfreeze",
	"wirealloc",
}

func knownAnalyzer(name string) bool {
	for _, a := range allowableAnalyzers {
		if a == name {
			return true
		}
	}
	return false
}

// directiveAnalyzer reports defective //lint:allow directives: one
// missing the analyzer name or the reason, and one naming an analyzer
// that does not exist (which would silently suppress nothing). Either
// way the allowlist stays auditable.
var directiveAnalyzer = &Analyzer{
	Name:         "directive",
	Doc:          "//lint:allow directives must name a known analyzer and give a reason",
	IncludeTests: true,
	Run: func(p *Package, f *File, report ReportFunc) {
		for _, pos := range f.malformed {
			report(pos, "malformed directive: want `%s <analyzer> <reason>` with analyzer one of %s",
				allowPrefix, analyzerNames())
		}
		for _, u := range f.unknown {
			report(u.pos, "unknown analyzer %q in directive: it suppresses nothing; analyzer must be one of %s",
				u.name, analyzerNames())
		}
	},
}

func analyzerNames() string {
	return strings.Join(allowableAnalyzers, "|")
}
