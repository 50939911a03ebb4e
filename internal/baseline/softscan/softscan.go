// Package softscan implements the software full-scan baseline standing in
// for MonetDB in §7.4.2. The paper stores each log as a single VARCHAR
// column and forces a whole-table scan per query; predicates are
// term-containment checks evaluated by the CPU, and MonetDB's
// column-oriented compression reduces the storage traffic. This engine
// mirrors that execution model:
//
//   - lines live in a single logical string column, chunked into blocks
//     that are LZ4-compressed and stored on the simulated device;
//   - a scan reads every block over the external (host) link, decompresses
//     it, and evaluates each term as a separate token-boundary substring
//     pass over the raw text — one pass per term, which is why software
//     throughput degrades as query combinations grow (the Figure 15
//     left-shift and the Table 6 1-/2-/8-query rows);
//   - blocks are scanned by a pool of workers, one per CPU by default.
package softscan

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mithrilog/internal/lz4"
	"mithrilog/internal/query"
	"mithrilog/internal/storage"
)

// BlockLines is the number of lines per compressed column block.
const BlockLines = 1024

// Engine is a built column store ready to scan.
type Engine struct {
	dev       *storage.Device
	blocks    []blockMeta
	rawBytes  uint64
	lineCount uint64
}

type blockMeta struct {
	pages []storage.PageID
	// compLen is the compressed block length (the last page is partial).
	compLen int
	lines   int
}

// Build ingests the lines into compressed column blocks on the device.
func Build(dev *storage.Device, lines [][]byte) (*Engine, error) {
	e := &Engine{dev: dev}
	comp := lz4.NewCompressor()
	var raw bytes.Buffer
	flush := func(n int) error {
		if raw.Len() == 0 {
			return nil
		}
		compressed := comp.Compress(nil, raw.Bytes())
		meta := blockMeta{compLen: len(compressed), lines: n}
		for off := 0; off < len(compressed); off += storage.PageSize {
			end := off + storage.PageSize
			if end > len(compressed) {
				end = len(compressed)
			}
			id, err := dev.Append(compressed[off:end])
			if err != nil {
				return err
			}
			meta.pages = append(meta.pages, id)
		}
		e.blocks = append(e.blocks, meta)
		raw.Reset()
		return nil
	}
	n := 0
	for _, line := range lines {
		raw.Write(line)
		raw.WriteByte('\n')
		e.rawBytes += uint64(len(line) + 1)
		e.lineCount++
		n++
		if n == BlockLines {
			if err := flush(n); err != nil {
				return nil, err
			}
			n = 0
		}
	}
	if err := flush(n); err != nil {
		return nil, err
	}
	return e, nil
}

// RawBytes is the original (uncompressed) column size.
func (e *Engine) RawBytes() uint64 { return e.rawBytes }

// Lines is the row count.
func (e *Engine) Lines() uint64 { return e.lineCount }

// Blocks is the number of column blocks.
func (e *Engine) Blocks() int { return len(e.blocks) }

// ScanResult reports one full-table scan.
type ScanResult struct {
	// Matches is the number of lines satisfying the query.
	Matches int
	// Lines holds the matching lines when the scan collected them
	// (ScanLines). Blocks are scanned by a worker pool, so line order is
	// nondeterministic; compare as a multiset.
	Lines [][]byte
	// Elapsed is the wall-clock scan time.
	Elapsed time.Duration
	// BytesScanned is the uncompressed volume evaluated.
	BytesScanned uint64
	// CompressedBytesRead is the storage traffic (external link).
	CompressedBytesRead uint64
	// TermPasses is the number of per-term containment passes evaluated:
	// one per distinct query term per line, the per-term CPU cost of
	// §7.4.2 as a count instead of a time.
	TermPasses uint64
}

// EffectiveThroughput is the §7.4.2 metric: original dataset size divided
// by elapsed time, in bytes/second.
func (r ScanResult) EffectiveThroughput(rawBytes uint64) float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(rawBytes) / r.Elapsed.Seconds()
}

// Scan runs a full-table scan evaluating the query on every line. workers
// <= 0 selects GOMAXPROCS.
func (e *Engine) Scan(q query.Query, workers int) (ScanResult, error) {
	return e.scan(q, workers, false)
}

// ScanLines is Scan with the matching lines materialized in the result —
// the oracle form differential tests compare the accelerated engine
// against. Line order across blocks is nondeterministic.
func (e *Engine) ScanLines(q query.Query, workers int) (ScanResult, error) {
	return e.scan(q, workers, true)
}

func (e *Engine) scan(q query.Query, workers int, collect bool) (ScanResult, error) {
	if err := q.Validate(); err != nil {
		return ScanResult{}, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	jobs := make(chan int, workers)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	total := 0
	var scanned, compRead, passes uint64
	var lines [][]byte
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pageBuf := make([]byte, storage.PageSize)
			var compBuf, rawBuf []byte
			matcher := newMatcher(q)
			for bi := range jobs {
				m, kept, sc, cr, err := e.scanBlock(bi, pageBuf, &compBuf, &rawBuf, matcher, collect)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				total += m
				scanned += sc
				compRead += cr
				lines = append(lines, kept...)
				mu.Unlock()
			}
			mu.Lock()
			passes += matcher.passes
			mu.Unlock()
		}()
	}
	for bi := range e.blocks {
		jobs <- bi
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return ScanResult{}, firstErr
	}
	return ScanResult{
		Matches:             total,
		Lines:               lines,
		Elapsed:             time.Since(start),
		BytesScanned:        scanned,
		CompressedBytesRead: compRead,
		TermPasses:          passes,
	}, nil
}

func (e *Engine) scanBlock(bi int, pageBuf []byte, compBuf, rawBuf *[]byte, m *matcher, collect bool) (matches int, kept [][]byte, scanned, compRead uint64, err error) {
	blk := &e.blocks[bi]
	*compBuf = (*compBuf)[:0]
	remaining := blk.compLen
	for _, pid := range blk.pages {
		if err := e.dev.Read(storage.External, pid, pageBuf); err != nil {
			return 0, nil, 0, 0, err
		}
		n := storage.PageSize
		if n > remaining {
			n = remaining
		}
		*compBuf = append(*compBuf, pageBuf[:n]...)
		remaining -= n
		compRead += storage.PageSize
	}
	*rawBuf, err = lz4.Decompress((*rawBuf)[:0], *compBuf)
	if err != nil {
		return 0, nil, 0, 0, fmt.Errorf("softscan: block %d: %w", bi, err)
	}
	data := *rawBuf
	scanned = uint64(len(data))
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		var line []byte
		if nl < 0 {
			line, data = data, nil
		} else {
			line, data = data[:nl], data[nl+1:]
		}
		if m.match(line) {
			matches++
			if collect {
				kept = append(kept, append([]byte(nil), line...))
			}
		}
	}
	return matches, kept, scanned, compRead, nil
}

// matcher evaluates a query MonetDB-style: each distinct term is one
// token-boundary substring pass over the line.
type matcher struct {
	q query.Query
	// terms are the distinct tokens; per line, presence is computed once
	// per term (one pass each), then set satisfaction is boolean algebra.
	terms []string
	index map[string]int
	// present is scratch per line.
	present []bool
	passes  uint64 // containment passes run so far
}

func newMatcher(q query.Query) *matcher {
	m := &matcher{q: q, index: make(map[string]int)}
	for _, tok := range q.Tokens() {
		m.index[tok] = len(m.terms)
		m.terms = append(m.terms, tok)
	}
	m.present = make([]bool, len(m.terms))
	return m
}

func (m *matcher) match(line []byte) bool {
	if m.q.UsesColumns() {
		// Column-constrained queries fall back to the reference matcher;
		// a LIKE-style engine has no notion of token positions.
		return m.q.Match(string(line))
	}
	// One containment pass per term — the per-term CPU cost that makes
	// larger query combinations slower.
	for i, t := range m.terms {
		m.present[i] = containsToken(line, t)
	}
	m.passes += uint64(len(m.terms))
	for _, set := range m.q.Sets {
		ok := true
		for _, term := range set.Terms {
			if m.present[m.index[term.Token]] == term.Negated {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// containsToken reports whether tok occurs in line as a whole
// delimiter-separated token.
func containsToken(line []byte, tok string) bool {
	if len(tok) == 0 {
		return false
	}
	for off := 0; ; {
		i := bytes.Index(line[off:], []byte(tok))
		if i < 0 {
			return false
		}
		start := off + i
		end := start + len(tok)
		leftOK := start == 0 || line[start-1] == ' ' || line[start-1] == '\t'
		rightOK := end == len(line) || line[end] == ' ' || line[end] == '\t'
		if leftOK && rightOK {
			return true
		}
		off = start + 1
	}
}
