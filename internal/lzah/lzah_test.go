package lzah

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t testing.TB, c *Codec, src []byte) []byte {
	t.Helper()
	comp := c.Compress(nil, src)
	got, err := c.Decompress(nil, comp)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(src))
	}
	return comp
}

func logSample(lines int) []byte {
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&sb, "- 1131564665 2005.11.09 dn%03d Nov 9 12:11:05 dn%03d/dn%03d ib_sm.x[%d]: [ib_sm_sweep.c:1455]: No topology change%d\n",
			i%256, i%256, i%256, 24000+i%100, i%7)
	}
	return []byte(sb.String())
}

func TestRoundTripEmpty(t *testing.T) {
	c := NewCodec(Options{})
	roundTrip(t, c, nil)
	roundTrip(t, c, []byte{})
}

func TestRoundTripSmall(t *testing.T) {
	c := NewCodec(Options{})
	for _, s := range []string{
		"a",
		"hello world",
		"\n",
		"\n\n\n",
		"exactly sixteen!",  // 16 bytes
		"seventeen bytes!!", // 17 bytes
		"line one\nline two\n",
		strings.Repeat("x", 1000),
		strings.Repeat("ab\n", 500),
	} {
		roundTrip(t, c, []byte(s))
	}
}

func TestRoundTripLog(t *testing.T) {
	c := NewCodec(Options{})
	src := logSample(5000)
	comp := roundTrip(t, c, src)
	r := Ratio(len(src), len(comp))
	// Highly repetitive log text must compress well beyond 2x.
	if r < 2 {
		t.Fatalf("log compression ratio %.2f too low", r)
	}
	t.Logf("log ratio: %.2fx (%d -> %d)", r, len(src), len(comp))
}

func TestNewlineAlignmentImprovesLogs(t *testing.T) {
	// The §5 claim: newline realignment recovers compression on logs whose
	// lines have varying lengths (which de-phase a fixed-stride window).
	src := logSample(3000)
	aligned := NewCodec(Options{})
	blind := NewCodec(Options{DisableNewlineAlign: true})
	ca := aligned.Compress(nil, src)
	cb := blind.Compress(nil, src)
	// Both must round trip.
	if got, err := aligned.Decompress(nil, ca); err != nil || !bytes.Equal(got, src) {
		t.Fatalf("aligned round trip failed: %v", err)
	}
	if got, err := blind.Decompress(nil, cb); err != nil || !bytes.Equal(got, src) {
		t.Fatalf("blind round trip failed: %v", err)
	}
	if len(ca) >= len(cb) {
		t.Fatalf("newline alignment should help on logs: aligned=%d blind=%d", len(ca), len(cb))
	}
	t.Logf("aligned %.2fx vs blind %.2fx", Ratio(len(src), len(ca)), Ratio(len(src), len(cb)))
}

func TestIncompressibleData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 64*1024)
	rng.Read(src)
	c := NewCodec(Options{})
	comp := roundTrip(t, c, src)
	// Worst-case expansion is bounded: 1 header word per 128 words plus
	// chunk padding — well under 5%.
	if len(comp) > len(src)+len(src)/16+64 {
		t.Fatalf("expansion too large: %d -> %d", len(src), len(comp))
	}
}

func TestBlockIndependence(t *testing.T) {
	// Two blocks compressed back-to-back must not share table state: the
	// second block decompresses standalone with a fresh codec.
	c := NewCodec(Options{})
	a := logSample(100)
	b := logSample(200)
	_ = c.Compress(nil, a)
	compB := c.Compress(nil, b)
	fresh := NewCodec(Options{})
	got, err := fresh.Decompress(nil, compB)
	if err != nil || !bytes.Equal(got, b) {
		t.Fatalf("block not independent: %v", err)
	}
}

func TestCompressedAndUncompressedLen(t *testing.T) {
	c := NewCodec(Options{})
	src := logSample(50)
	comp := c.Compress(nil, src)
	cl, err := CompressedLen(comp)
	if err != nil || cl != len(comp) {
		t.Fatalf("CompressedLen = %d, %v; want %d", cl, err, len(comp))
	}
	ul, err := UncompressedLen(comp)
	if err != nil || ul != len(src) {
		t.Fatalf("UncompressedLen = %d, %v; want %d", ul, err, len(src))
	}
	if _, err := CompressedLen(nil); err == nil {
		t.Error("CompressedLen(nil) should fail")
	}
	if _, err := UncompressedLen([]byte{1, 2}); err == nil {
		t.Error("UncompressedLen(short) should fail")
	}
}

func TestDecompressCorrupt(t *testing.T) {
	c := NewCodec(Options{})
	src := logSample(100)
	comp := c.Compress(nil, src)
	cases := map[string][]byte{
		"empty":     {},
		"short":     comp[:4],
		"truncated": comp[:len(comp)/2],
	}
	// Payload length pointing past the block.
	bad := append([]byte(nil), comp...)
	bad[4] = 0xff
	bad[5] = 0xff
	bad[6] = 0xff
	cases["length overflow"] = bad
	for name, blk := range cases {
		if _, err := NewCodec(Options{}).Decompress(nil, blk); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestDecodeWordAccounting(t *testing.T) {
	c := NewCodec(Options{})
	src := []byte("one line\nand a second, longer line of text\n")
	comp := c.Compress(nil, src)
	c.ResetStats()
	if _, err := c.Decompress(nil, comp); err != nil {
		t.Fatal(err)
	}
	if c.DecodeWords() == 0 {
		t.Fatal("decoder cycles not accounted")
	}
	// Each emitted word covers at most 16 bytes, so words >= ceil(len/16).
	if c.DecodeWords() < uint64((len(src)+15)/16) {
		t.Fatalf("decode words %d below minimum", c.DecodeWords())
	}
}

// TestDecodeWordsOnePerWindow pins the decode-cycle account exactly: the
// decoder emits one word per encoder window, and a window holds at most
// WordSize bytes and ends at a line's newline, so a block costs the sum
// over its lines of ceil(len/WordSize) words, matched or literal.
func TestDecodeWordsOnePerWindow(t *testing.T) {
	c := NewCodec(Options{})
	var src []byte
	want := uint64(0)
	for _, n := range []int{1, 9, 15, 16, 17, 31, 32, 33, 100, 16, 9} {
		line := append(bytes.Repeat([]byte("ab"), n/2), "cdefghijklmnopq"[:n%2]...)
		line[len(line)-1] = '\n'
		src = append(src, line...)
		want += uint64((n + WordSize - 1) / WordSize)
	}
	comp := c.Compress(nil, src)
	c.ResetStats()
	out, err := c.Decompress(nil, comp)
	if err != nil || !bytes.Equal(out, src) {
		t.Fatalf("round trip failed: %v", err)
	}
	if got := c.DecodeWords(); got != want {
		t.Fatalf("decode words %d for %d bytes, want %d: one per window", got, len(src), want)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(4096)
		src := make([]byte, n)
		// Mix of text-like and binary content with newlines.
		for i := range src {
			switch rng.Intn(10) {
			case 0:
				src[i] = '\n'
			case 1:
				src[i] = byte(rng.Intn(256))
			default:
				src[i] = byte('a' + rng.Intn(26))
			}
		}
		c := NewCodec(Options{TableBytes: 1 << uint(8+rng.Intn(6))})
		comp := c.Compress(nil, src)
		got, err := c.Decompress(nil, comp)
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTripNoNewlineAlign(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(2048)
		src := make([]byte, n)
		rng.Read(src)
		c := NewCodec(Options{DisableNewlineAlign: true})
		comp := c.Compress(nil, src)
		got, err := c.Decompress(nil, comp)
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableGenerationWrap(t *testing.T) {
	// Force generation wraparound to exercise the real-clear path.
	c := NewCodec(Options{TableBytes: 256})
	c.curGen = ^uint32(0) - 1
	src := logSample(20)
	roundTrip(t, c, src)
	roundTrip(t, c, src)
	roundTrip(t, c, src)
}

func BenchmarkCompressLog(b *testing.B) {
	c := NewCodec(Options{})
	src := logSample(10000)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	var dst []byte
	for i := 0; i < b.N; i++ {
		dst = c.Compress(dst[:0], src)
	}
}

func BenchmarkDecompressLog(b *testing.B) {
	c := NewCodec(Options{})
	src := logSample(10000)
	comp := c.Compress(nil, src)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	var dst []byte
	var err error
	for i := 0; i < b.N; i++ {
		dst, err = c.Decompress(dst[:0], comp)
		if err != nil {
			b.Fatal(err)
		}
	}
}
