package core

// Paper-constant provenance: paper magic numbers re-typed as literals
// (flagged) versus unrelated numerology (clean).

// Class 2: package-level constants whose names claim a paper concept but
// are initialized from a fresh literal instead of the hwsim symbol.
const wordSize = 16 // want `wordSize redefines paper constant 16; reference hwsim.DatapathBytes`

const (
	leafEntries   = 16 // want `leafEntries redefines paper constant 16; reference hwsim.IndexLeafEntries`
	bytesPerCycle = 2  // want `bytesPerCycle redefines paper constant 2; reference hwsim.TokenizerBytesPerCycle`
	numPipelines  = 4  // want `numPipelines redefines paper constant 4; reference hwsim.DefaultPipelines`
)

// Class 1: distinctive values are flagged anywhere a literal spells them.
func deriveClock() float64 {
	return 200e6 // want `paper constant 200e6 written as a literal; reference hwsim.ClockHz`
}

var internalLink = 4.8e9 // want `paper constant 4.8e9 written as a literal; reference hwsim.InternalBandwidth`

// Clean: values that merely collide numerically, or names that claim no
// paper concept, stay unflagged.
const pageSize = 4096

const bufSlots = 16 // name claims no paper concept

func scale(n int) int { return n * 4 } // bare small literal in arithmetic

var _ = wordSize + leafEntries + bytesPerCycle + numPipelines + pageSize + bufSlots

var _ = internalLink

var _ = deriveClock
