package perf

import (
	"fmt"
	"runtime"
	"time"

	"mithrilog/internal/cuckoo"
	"mithrilog/internal/filter"
	"mithrilog/internal/loggen"
	"mithrilog/internal/lzah"
	"mithrilog/internal/query"
)

// microQuery is the representative filter configuration for the cuckoo
// and hash-filter micro legs: two intersection sets mixing common and
// rare tokens, a negation, and a disjunction.
const microQuery = `(kernel: AND error AND NOT recovery) OR (daemon AND session)`

// microBlockRawBytes sizes the raw chunks the LZAH micro leg compresses;
// at the typical ~3x ratio a chunk lands near the 4 KiB page the engine
// writes, so the leg exercises page-shaped blocks.
const microBlockRawBytes = 12 * 1024

// measureMicro runs the single-goroutine inner-loop benchmarks.
func measureMicro(ds *loggen.Dataset, opts Options) (MicroResults, error) {
	var m MicroResults
	text := ds.Text()
	lines := len(ds.Lines)

	iters := 8
	if opts.Quick {
		iters = 2
	}

	q, err := query.Parse(microQuery)
	if err != nil {
		return m, err
	}
	table, err := cuckoo.Compile(q, cuckoo.Config{})
	if err != nil {
		return m, err
	}
	pipe := filter.NewPipeline(filter.PipelineConfig{})
	if err := pipe.Configure(q); err != nil {
		return m, err
	}

	// --- Tokenizer: the fused tokenize-and-probe pass a cold page pays
	// (Pipeline.FilterBlock), over page-shaped chunks. The kept-lines
	// buffer is the pipeline's own, so steady state allocates nothing.
	var chunks [][]byte
	for off := 0; off < len(text); off += microBlockRawBytes {
		end := off + microBlockRawBytes
		if end > len(text) {
			end = len(text)
		}
		chunks = append(chunks, text[off:end])
	}
	var scanErr error
	scanAll := func() {
		for _, chunk := range chunks {
			if _, err := pipe.FilterBlock(chunk); err != nil {
				scanErr = err
			}
		}
	}
	scanAll() // warm: reach steady-state capacity
	start := time.Now()
	for i := 0; i < iters; i++ {
		scanAll()
	}
	m.TokenizeMBPerS = mbPerS(int64(len(text))*int64(iters), time.Since(start))
	m.TokenizeAllocsPerLine = allocsPerOp(4, scanAll) / float64(lines)
	if scanErr != nil {
		return m, scanErr
	}

	// --- Cuckoo: single lookups over the dataset's tokens (hits and
	// misses in dataset proportions).
	var toks [][]byte
	for _, s := range pipe.Tokenize(text).Words {
		toks = append(toks, text[s.Off:s.Off+s.Len])
	}
	if len(toks) == 0 {
		return m, fmt.Errorf("perf: token stream empty")
	}
	lookupAll := func() {
		for _, tok := range toks {
			table.LookupBytes(tok)
		}
	}
	lookupAll() // warm
	start = time.Now()
	for i := 0; i < iters; i++ {
		lookupAll()
	}
	m.CuckooLookupNs = nsPerOp(int64(len(toks))*int64(iters), time.Since(start))
	m.CuckooAllocsPerLookup = allocsPerOp(2, lookupAll) / float64(len(toks))
	m.CuckooBatchNs = measureCuckooBatch(table, toks, iters)

	// --- LZAH: compress page-shaped chunks, then decode them into a
	// reused arena pre-grown to the uncompressed size.
	codec := lzah.NewCodec(lzah.Options{})
	var blocks [][]byte
	rawTotal := int64(len(text))
	for _, chunk := range chunks {
		blocks = append(blocks, codec.Compress(nil, chunk))
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		for _, chunk := range chunks {
			codec.Compress(compressScratch[:0], chunk)
		}
	}
	m.LZAHCompressMBPerS = mbPerS(rawTotal*int64(iters), time.Since(start))

	dst := make([]byte, 0, microBlockRawBytes)
	decodeAll := func() error {
		for _, b := range blocks {
			var derr error
			dst, derr = codec.Decompress(dst[:0], b)
			if derr != nil {
				return derr
			}
		}
		return nil
	}
	if err := decodeAll(); err != nil {
		return m, err
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		if err := decodeAll(); err != nil {
			return m, err
		}
	}
	m.LZAHDecodeMBPerS = mbPerS(rawTotal*int64(iters), time.Since(start))
	var decErr error
	m.LZAHDecodeAllocsPerBlock = allocsPerOp(2, func() {
		if err := decodeAll(); err != nil {
			decErr = err
		}
	}) / float64(len(blocks))
	if decErr != nil {
		return m, decErr
	}

	// --- Filter warm path: hash-filter pass over pre-tokenized blocks
	// (what a page-cache hit pays).
	var tbs []*filter.TokenizedBlock
	for _, chunk := range chunks {
		tbs = append(tbs, pipe.Tokenize(chunk))
	}
	filterAll := func() error {
		for _, tb := range tbs {
			if _, ferr := pipe.FilterTokenized(tb); ferr != nil {
				return ferr
			}
		}
		return nil
	}
	if err := filterAll(); err != nil {
		return m, err
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		if err := filterAll(); err != nil {
			return m, err
		}
	}
	m.FilterWarmMBPerS = mbPerS(rawTotal*int64(iters), time.Since(start))
	return m, nil
}

// compressScratch is a reused compression destination so the compress
// micro leg measures the codec, not allocator growth.
var compressScratch = make([]byte, 0, 2*microBlockRawBytes)

// mbPerS converts processed bytes and elapsed time to MB/s.
func mbPerS(bytes int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / elapsed.Seconds()
}

// nsPerOp converts an op count and elapsed time to ns/op.
func nsPerOp(ops int64, elapsed time.Duration) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(elapsed.Nanoseconds()) / float64(ops)
}

// allocsPerOp reports the average heap allocations per call of f over n
// calls, in the spirit of testing.AllocsPerRun: single OS thread view,
// one warm-up call, then a mallocs delta.
func allocsPerOp(n int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// allocsAndTime runs f once, reporting its heap allocations and wall time.
func allocsAndTime(f func()) (allocs uint64, elapsed time.Duration) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, elapsed
}

// measureCuckooBatch measures the batched 8-at-a-time lookup path in ns
// per token; it returns 0 when the batch API is unavailable (runs
// recorded before the raw-speed pass).
func measureCuckooBatch(table *cuckoo.Table, toks [][]byte, iters int) float64 {
	return cuckooBatchNs(table, toks, iters)
}
