package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRepoInvariantsClean runs the whole suite over the real module, so
// `go test ./...` fails on an invariant violation even where CI's
// dedicated mithrilint stage is not wired up. It runs strict (stale
// suppressions are findings), matching CI's -strict-ignores invocation.
// It type-checks every module package; the standard-library packages the
// fixture tests have already checked are reused from the shared fixture
// loader.
func TestRepoInvariantsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	pkgs, prog, err := fixtures(t).ModuleLoader().LoadModule("./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags := RunWithOptions(prog, pkgs, Analyzers(), RunOptions{StrictIgnores: true})
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestLintDocMatchesSuite holds LINT.md's audit table to the suite: its
// rows must name exactly the analyzers Analyzers() returns, in reporting
// order (what `mithrilint -list` prints), so an analyzer added or retired
// without its row fails here.
func TestLintDocMatchesSuite(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "LINT.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, audit, ok := strings.Cut(string(doc), "\n## Audit")
	if !ok {
		t.Fatal("LINT.md has no \"## Audit\" section")
	}
	audit, _, _ = strings.Cut(audit, "\n## ")
	var inDoc, inSuite []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|").FindAllStringSubmatch(audit, -1) {
		inDoc = append(inDoc, m[1])
	}
	for _, a := range Analyzers() {
		inSuite = append(inSuite, a.Name)
	}
	if got, want := strings.Join(inDoc, " "), strings.Join(inSuite, " "); got != want {
		t.Errorf("LINT.md audit table rows:\n  %s\nsuite:\n  %s", got, want)
	}
}
