// Package hwsim is a fixture stand-in for mithrilog/internal/hwsim: it
// mirrors the accounting API the cycleaccount analyzer blesses, so fixture
// packages can exercise "mutation through the API is fine" cases without
// depending on the real simulator.
package hwsim

// AddCycles mirrors the real accounting entry point.
func AddCycles(counter *uint64, n uint64) { *counter += n }

// CyclesForBytes mirrors the real throughput conversion.
func CyclesForBytes(n, bytesPerCycle uint64) uint64 {
	if bytesPerCycle == 0 {
		return 0
	}
	return (n + bytesPerCycle - 1) / bytesPerCycle
}

// BottleneckCycles mirrors the real pipeline-bottleneck combinator.
func BottleneckCycles(stage uint64, stages ...uint64) uint64 {
	max := stage
	for _, s := range stages {
		if s > max {
			max = s
		}
	}
	return max
}

// SumCycles mirrors the real sequential-phase combinator.
func SumCycles(phases ...uint64) uint64 {
	var total uint64
	for _, p := range phases {
		total += p
	}
	return total
}

// model is a local cycle counter; hwsim itself is exempt from the
// cycleaccount analyzer, so these direct mutations must not be flagged.
type model struct {
	pipelineCycles uint64
}

func (m *model) tick() {
	m.pipelineCycles++
	m.pipelineCycles += 4
	m.pipelineCycles = m.pipelineCycles * 2
}
