package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/docstore"
)

// wantRe extracts `// want "substring"` expectations from fixture source.
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// expectation is one `// want` marker: the diagnostic substring expected
// at a specific line.
type expectation struct {
	line int
	sub  string
}

// readExpectations scans a fixture file for want markers. A marker
// trailing code binds to its own line; a marker alone on a line binds to
// the next line (used where the finding is itself on a comment, e.g. a
// malformed directive).
func readExpectations(t *testing.T, path string) []expectation {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []expectation
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		m := wantRe.FindStringSubmatch(text)
		if m == nil {
			continue
		}
		target := line
		if strings.TrimSpace(text[:strings.Index(text, "//")]) == "" {
			target = line + 1
		}
		out = append(out, expectation{line: target, sub: m[1]})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// runFixture loads testdata/<dir> as a type-checked single-package
// module at asPath, runs exactly one analyzer (plus nothing else), and
// checks the findings against the fixture's want markers in both
// directions.
func runFixture(t *testing.T, dir, asPath string, a *Analyzer) {
	t.Helper()
	fixDir := filepath.Join("testdata", dir)
	m, err := FixtureModule(fixDir, asPath)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Pkgs[0]
	diags := Run(m, []*Analyzer{a})

	var want []expectation
	for _, f := range p.Files {
		want = append(want, readExpectations(t, filepath.Join(fixDir, f.Name))...)
	}
	if len(want) == 0 {
		t.Fatalf("fixture %s has no want markers; the test would pass vacuously", fixDir)
	}

	matched := make([]bool, len(diags))
	for _, w := range want {
		found := false
		for i, d := range diags {
			if !matched[i] && d.Pos.Line == w.line && strings.Contains(d.Message, w.sub) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing diagnostic at %s line %d containing %q\ngot:\n%s", dir, w.line, w.sub, renderDiags(diags))
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

func renderDiags(diags []Diagnostic) string {
	if len(diags) == 0 {
		return "  (none)"
	}
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

func TestWallclockFixture(t *testing.T) {
	runFixture(t, "wallclock", "internal/sim", wallclockAnalyzer)
}

// TestWallclockOutsideKernelIsSilent pins the scoping: the same fixture
// under a non-kernel path must produce nothing.
func TestWallclockOutsideKernelIsSilent(t *testing.T) {
	assertFixtureSilent(t, "wallclock", "internal/feature", wallclockAnalyzer)
}

// TestWallclockFixtureInShard pins the widened scope: the scatter
// router's pruning and merge math is kernel-governed, so the fixture
// must fire under internal/shard too (the router's genuine clock uses
// live behind annotated helpers in shard/walltime.go).
func TestWallclockFixtureInShard(t *testing.T) {
	runFixture(t, "wallclock", "internal/shard", wallclockAnalyzer)
}

// assertFixtureSilent runs one analyzer over a fixture under a package
// path it does not govern and requires zero findings.
func assertFixtureSilent(t *testing.T, dir, asPath string, a *Analyzer) {
	t.Helper()
	m, err := FixtureModule(filepath.Join("testdata", dir), asPath)
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run(m, []*Analyzer{a}); len(diags) != 0 {
		t.Fatalf("%s fired under %s, outside its governed packages:\n%s", a.Name, asPath, renderDiags(diags))
	}
}

func TestGoroutineFixture(t *testing.T) {
	runFixture(t, "goroutine", "internal/transport", goroutineAnalyzer)
}

// TestGoroutineFixtureInDocstore pins the widened scope: the docstore's
// committer and compactor goroutines are join-tracked, so the same fixture
// must fire under internal/docstore too.
func TestGoroutineFixtureInDocstore(t *testing.T) {
	runFixture(t, "goroutine", "internal/docstore", goroutineAnalyzer)
}

// TestGoroutineFixtureInShard pins the widened scope: the scatter
// router's hedge and backup attempts hold live connections and must be
// join-tracked (Router.wg), so the fixture fires under internal/shard
// as well.
func TestGoroutineFixtureInShard(t *testing.T) {
	runFixture(t, "goroutine", "internal/shard", goroutineAnalyzer)
}

func TestCheckederrFixture(t *testing.T) {
	runFixture(t, "checkederr", "internal/docstore", checkederrAnalyzer)
}

func TestLockfreeFixture(t *testing.T) {
	runFixture(t, "lockfree", "internal/docstore", lockfreeAnalyzer)
}

// TestLockfreeOutsideDocstoreIsSilent pins the scoping: the same fixture
// under any other path must produce nothing.
func TestLockfreeOutsideDocstoreIsSilent(t *testing.T) {
	assertFixtureSilent(t, "lockfree", "internal/core", lockfreeAnalyzer)
}

// TestGovernedNamesAreStoreMethods: the lockfree and hotalloc analyzers pick
// their roots by method name, so a name that is no longer a method of
// docstore.Store — renamed or deleted — would silently guard nothing.
func TestGovernedNamesAreStoreMethods(t *testing.T) {
	store := reflect.TypeFor[*docstore.Store]()
	for list, names := range map[string]map[string]bool{
		"lockfreeReadMethods": lockfreeReadMethods,
		"hotallocRoots":       hotallocRoots,
	} {
		for name := range names {
			if _, ok := store.MethodByName(name); !ok {
				t.Errorf("%s names %s, which is not a method of docstore.Store", list, name)
			}
		}
	}
}

// TestPoolPutNotConflated pins the regression the typed call graph exists
// for: the old name-based graph conflated sync.Pool.Put with Store.Put and
// needed a hard-coded barrier list to avoid dragging the whole write side
// into Search* reachability. With method resolution, Store.Put must simply
// not be reachable from SearchText, which releases its scratch through
// sync.Pool.Put.
func TestPoolPutNotConflated(t *testing.T) {
	m, err := FixtureModule(filepath.Join("testdata", "hotalloc"), "internal/docstore")
	if err != nil {
		t.Fatal(err)
	}
	g := m.Graph()
	search := g.Node("internal/docstore", "Store", "SearchText")
	put := g.Node("internal/docstore", "Store", "Put")
	if search == nil || put == nil {
		t.Fatal("fixture must declare Store.SearchText and Store.Put")
	}
	reached := g.ReachableFrom([]*FuncNode{search}, nil)
	if _, ok := reached[put]; ok {
		t.Fatal("Store.Put is reachable from Store.SearchText: the call graph conflated sync.Pool.Put with Store.Put again")
	}
}

func TestDirectiveFixture(t *testing.T) {
	runFixture(t, "directive", "internal/anywhere", directiveAnalyzer)
}

func TestAtomicsFixture(t *testing.T) {
	runFixture(t, "atomics", "internal/anywhere", atomicsAnalyzer)
}

func TestHotallocFixture(t *testing.T) {
	runFixture(t, "hotalloc", "internal/docstore", hotallocAnalyzer)
}

// TestHotallocOutsideDocstoreIsSilent pins the scoping: the zero-alloc
// contract governs the docstore only.
func TestHotallocOutsideDocstoreIsSilent(t *testing.T) {
	assertFixtureSilent(t, "hotalloc", "internal/core", hotallocAnalyzer)
}

func TestWireallocFixture(t *testing.T) {
	runFixture(t, "wirealloc", "internal/wire", wireallocAnalyzer)
}

// TestWireallocOutsideWireIsSilent pins the scoping: the zero-alloc wire
// contract governs internal/wire only, however many AppendTo methods
// other packages grow.
func TestWireallocOutsideWireIsSilent(t *testing.T) {
	assertFixtureSilent(t, "wirealloc", "internal/core", wireallocAnalyzer)
}

func TestSnapfreezeFixture(t *testing.T) {
	runFixture(t, "snapfreeze", "internal/docstore", snapfreezeAnalyzer)
}

// TestSnapfreezeOutsideDocstoreIsSilent pins the scoping: the frozen
// type table is per-package.
func TestSnapfreezeOutsideDocstoreIsSilent(t *testing.T) {
	assertFixtureSilent(t, "snapfreeze", "internal/core", snapfreezeAnalyzer)
}

// TestRepoClean is the regression gate for the whole sweep: the repo at
// HEAD must be free of agoralint findings. If this fails, either fix the
// violation or annotate it with a reasoned //lint:allow.
func TestRepoClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("expected module root two levels up from internal/lint: %v", err)
	}
	m, err := LoadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(m, Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Fatalf("repo is not lint-clean: %d finding(s); fix them or annotate `//lint:allow <analyzer> <reason>`", len(diags))
	}
	// The loader must actually have seen the governed packages — guard
	// against a silent skip making this test vacuous.
	seen := map[string]bool{}
	for _, p := range m.Pkgs {
		seen[p.Path] = true
	}
	for _, must := range []string{"internal/sim", "internal/core", "internal/telemetry", "internal/transport", "internal/docstore"} {
		if !seen[must] {
			t.Fatalf("loader did not visit %s; TestRepoClean would be vacuous", must)
		}
	}
}

// TestAnalyzerNameList pins the directive allowlist to the real suite so
// the two cannot drift apart.
func TestAnalyzerNameList(t *testing.T) {
	suite := map[string]bool{}
	for _, a := range Analyzers() {
		suite[a.Name] = true
	}
	for _, name := range allowableAnalyzers {
		if !suite[name] {
			t.Errorf("allowableAnalyzers lists %q, which is not in Analyzers()", name)
		}
	}
	// Every analyzer except directive itself must be suppressible.
	if len(allowableAnalyzers) != len(Analyzers())-1 {
		t.Errorf("allowableAnalyzers has %d entries, want %d (every analyzer except directive)",
			len(allowableAnalyzers), len(Analyzers())-1)
	}
}

// TestDirectiveCoversSameAndNextLine pins the two documented placements.
func TestDirectiveCoversSameAndNextLine(t *testing.T) {
	dir := t.TempDir()
	src := `package p

import "time"

func trailing() {
	time.Sleep(time.Second) //lint:allow wallclock trailing placement
}

func preceding() {
	//lint:allow wallclock preceding placement
	time.Sleep(time.Second)
}

func uncovered() {
	//lint:allow wallclock two lines above does not cover

	time.Sleep(time.Second)
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := FixtureModule(dir, "internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(m, []*Analyzer{wallclockAnalyzer})
	if len(diags) != 1 {
		t.Fatalf("want exactly the uncovered() finding, got:\n%s", renderDiags(diags))
	}
	if diags[0].Pos.Line != 17 {
		t.Errorf("finding at line %d, want 17 (the sleep two lines under its directive)", diags[0].Pos.Line)
	}
}
