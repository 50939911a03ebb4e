package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// RunFixture loads the fixture package at pkgPath (resolved under the
// loader's FixtureRoots) and checks one analyzer's findings against the
// `// want` expectations embedded in the fixture, following the
// go/analysis analysistest convention:
//
//	s.Cycles++ // want `direct increment of cycle counter`
//
// Each expectation is a back-quoted or double-quoted regular expression
// that must match a diagnostic reported on that line; every diagnostic
// must be claimed by an expectation and every expectation must be matched
// by a diagnostic.
func RunFixture(t *testing.T, loader *Loader, a *Analyzer, pkgPath string) {
	t.Helper()
	pkg, prog, err := loader.LoadFixture(pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgPath, err)
	}
	diags := Run(prog, []*Package{pkg}, []*Analyzer{a})
	checkWants(t, pkgPath, diags, fixtureWants(t, loader, pkg))
}

// checkWants matches diagnostics against expectations one to one: every
// diagnostic must be claimed by a want on its line and every want must
// match a diagnostic.
func checkWants(t *testing.T, pkgPath string, diags []Diagnostic, wants []want) {
	t.Helper()
	matched := make([]bool, len(wants))

	for _, d := range diags {
		claimed := false
		for i, w := range wants {
			if matched[i] || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("%s: unexpected diagnostic: %s", pkgPath, d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s: %s:%d: expected diagnostic matching %q, got none",
				pkgPath, filepath.Base(w.file), w.line, w.re)
		}
	}
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// wantRE matches each quoted pattern after a "want" marker.
var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// fixtureWants extracts the want expectations from a loaded package.
func fixtureWants(t *testing.T, loader *Loader, pkg *Package) []want {
	t.Helper()
	var out []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 {
					continue
				}
				pos := loader.fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(text[idx+len("want "):], -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					out = append(out, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// FixtureLoader builds a loader whose fixture root is testdata/src under
// the caller's directory, with go list anchored at the module root so
// stdlib imports resolve.
func FixtureLoader(moduleDir string) *Loader {
	l := NewLoader(moduleDir)
	l.FixtureRoots = []string{filepath.Join(moduleDir, "internal", "lint", "testdata", "src")}
	return l
}
