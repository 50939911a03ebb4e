package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// fixtures builds a loader rooted at this repository with fixture
// resolution under internal/lint/testdata/src. Tests run with the package
// directory as the working directory, so the module root is two levels up.
func fixtures(t *testing.T) *Loader {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("resolving module root: %v", err)
	}
	return FixtureLoader(dir)
}

func TestCycleAccountFixture(t *testing.T) {
	l := fixtures(t)
	RunFixture(t, l, CycleAccountAnalyzer, "cycleaccount/a")
	// hwsim is the accounting authority: its own direct counter mutations
	// must produce no findings (the fixture fake contains several).
	RunFixture(t, l, CycleAccountAnalyzer, "mithrilog/internal/hwsim")
}

func TestLockOrderFixture(t *testing.T) {
	RunFixture(t, fixtures(t), LockOrderAnalyzer, "lockorder/a")
}

func TestMetricNameFixture(t *testing.T) {
	RunFixture(t, fixtures(t), MetricNameAnalyzer, "metricname/a")
}

func TestCtxFlowFixture(t *testing.T) {
	l := fixtures(t)
	RunFixture(t, l, CtxFlowAnalyzer, "ctxflow/internal/sched")
	// Outside an internal/ hot-path segment the same call is allowed.
	RunFixture(t, l, CtxFlowAnalyzer, "ctxflow/facade")
}

func TestErrDropFixture(t *testing.T) {
	RunFixture(t, fixtures(t), ErrDropAnalyzer, "errdrop/a")
}

func TestUnitCheckFixture(t *testing.T) {
	RunFixture(t, fixtures(t), UnitCheckAnalyzer, "unitcheck/internal/core")
}

func TestPaperConstFixture(t *testing.T) {
	RunFixture(t, fixtures(t), PaperConstAnalyzer, "paperconst/internal/filter")
}

func TestGoLeakFixture(t *testing.T) {
	RunFixture(t, fixtures(t), GoLeakAnalyzer, "goleak/internal/sched")
}

func TestHwPureFixture(t *testing.T) {
	RunFixture(t, fixtures(t), HwPureAnalyzer, "hwpure/internal/hwsim")
}

func TestPoolLifeFixture(t *testing.T) {
	RunFixture(t, fixtures(t), PoolLifeAnalyzer, "poollife/a")
}

func TestGuardedByFixture(t *testing.T) {
	RunFixture(t, fixtures(t), GuardedByAnalyzer, "guardedby/a")
}

func TestHotAllocFixture(t *testing.T) {
	RunFixture(t, fixtures(t), HotAllocAnalyzer, "hotalloc/a")
}

func TestShardIsoFixture(t *testing.T) {
	RunFixture(t, fixtures(t), ShardIsoAnalyzer, "shardiso/a")
}

func TestPersistVerFixture(t *testing.T) {
	RunFixture(t, fixtures(t), PersistVerAnalyzer, "persistver/a")
}

// TestStrictIgnores checks the stale-suppression report over the
// ignorestale/a fixture: the directive silencing a live finding is
// used, the one silencing nothing is reported stale, and a directive
// for an analyzer that did not run in this invocation is left alone.
func TestStrictIgnores(t *testing.T) {
	pkg, prog, err := fixtures(t).LoadFixture("ignorestale/a")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	analyzers := []*Analyzer{CycleAccountAnalyzer}

	if diags := Run(prog, []*Package{pkg}, analyzers); len(diags) != 0 {
		t.Errorf("default run: got %d diagnostics, want 0 (all findings suppressed):", len(diags))
		for _, d := range diags {
			t.Errorf("  %s", d)
		}
	}

	diags := RunWithOptions(prog, []*Package{pkg}, analyzers, RunOptions{StrictIgnores: true})
	if len(diags) != 1 {
		t.Fatalf("strict run: got %d diagnostics, want exactly the stale report:\n%v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer.Name != "ignore" {
		t.Errorf("stale report attributed to %s, want ignore", d.Analyzer.Name)
	}
	if !strings.Contains(d.Message, "suppresses no findings") ||
		!strings.Contains(d.Message, "cycleaccount") {
		t.Errorf("unexpected stale message: %s", d.Message)
	}
	if strings.Contains(d.Message, "hotalloc") {
		t.Errorf("directive for an analyzer that did not run reported stale: %s", d.Message)
	}
}

// TestIgnoreDirective checks the suppression contract over the ignore/a
// fixture: a reasoned directive (analyzer or "all") suppresses, while a
// reasonless or unknown-analyzer directive suppresses nothing and is
// itself reported under the "ignore" pseudo-analyzer.
func TestIgnoreDirective(t *testing.T) {
	pkg, prog, err := fixtures(t).LoadFixture("ignore/a")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := Run(prog, []*Package{pkg}, []*Analyzer{CycleAccountAnalyzer})

	byAnalyzer := make(map[string]int)
	for _, d := range diags {
		byAnalyzer[d.Analyzer.Name]++
	}
	// The two malformed directives leave their lines unsuppressed (2
	// cycleaccount findings) and are findings themselves (2 ignore ones).
	if byAnalyzer["cycleaccount"] != 2 || byAnalyzer["ignore"] != 2 || len(diags) != 4 {
		t.Errorf("got %d diagnostics (%v), want 2 cycleaccount + 2 ignore:", len(diags), byAnalyzer)
		for _, d := range diags {
			t.Errorf("  %s", d)
		}
	}
	var sawNoReason, sawUnknown bool
	for _, d := range diags {
		if d.Analyzer.Name != "ignore" {
			continue
		}
		if strings.Contains(d.Message, "needs an analyzer name and a reason") {
			sawNoReason = true
		}
		if strings.Contains(d.Message, `unknown analyzer "nosuch"`) {
			sawUnknown = true
		}
	}
	if !sawNoReason || !sawUnknown {
		t.Errorf("missing ignore diagnostics: noReason=%v unknown=%v", sawNoReason, sawUnknown)
	}
}

// TestFixtureExclusivity runs the FULL suite over each broken fixture and
// checks every diagnostic comes from the analyzer the fixture targets:
// the invariants are orthogonal, so a fixture written for one analyzer
// must not trip another.
func TestFixtureExclusivity(t *testing.T) {
	cases := []struct {
		pkgPath string
		want    string
	}{
		{"cycleaccount/a", "cycleaccount"},
		{"lockorder/a", "lockorder"},
		{"metricname/a", "metricname"},
		{"ctxflow/internal/sched", "ctxflow"},
		{"errdrop/a", "errdrop"},
		{"unitcheck/internal/core", "unitcheck"},
		{"paperconst/internal/filter", "paperconst"},
		{"goleak/internal/sched", "goleak"},
		{"hwpure/internal/hwsim", "hwpure"},
		{"poollife/a", "poollife"},
		{"guardedby/a", "guardedby"},
		{"hotalloc/a", "hotalloc"},
		{"shardiso/a", "shardiso"},
		{"persistver/a", "persistver"},
	}
	l := fixtures(t)
	for _, tc := range cases {
		pkg, prog, err := l.LoadFixture(tc.pkgPath)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", tc.pkgPath, err)
		}
		diags := Run(prog, []*Package{pkg}, Analyzers())
		if len(diags) == 0 {
			t.Errorf("%s: expected findings from %s, got none", tc.pkgPath, tc.want)
		}
		for _, d := range diags {
			if d.Analyzer.Name != tc.want {
				t.Errorf("%s: diagnostic from unexpected analyzer %s: %s",
					tc.pkgPath, d.Analyzer.Name, d)
			}
		}
	}
}

func TestAnalyzerByName(t *testing.T) {
	for _, a := range Analyzers() {
		if got := AnalyzerByName(a.Name); got != a {
			t.Errorf("AnalyzerByName(%q) = %v, want %v", a.Name, got, a)
		}
	}
	if got := AnalyzerByName("nope"); got != nil {
		t.Errorf("AnalyzerByName(nope) = %v, want nil", got)
	}
}
