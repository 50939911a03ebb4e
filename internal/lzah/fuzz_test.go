package lzah

import (
	"bytes"
	"testing"
)

// FuzzRoundTrip asserts compress→decompress identity on arbitrary bytes
// for both codec configurations.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("hello world\n"))
	f.Add([]byte("line one\nline two\nline three\n"))
	f.Add(bytes.Repeat([]byte("pattern "), 100))
	f.Add([]byte{0, 1, 2, 255, '\n', 0, '\n'})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, opts := range []Options{{}, {DisableNewlineAlign: true}, {TableBytes: 256}} {
			c := NewCodec(opts)
			comp := c.Compress(nil, data)
			got, err := c.Decompress(nil, comp)
			if err != nil {
				t.Fatalf("opts %+v: decompress: %v", opts, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("opts %+v: round trip mismatch", opts)
			}
		}
	})
}

// FuzzDecompressNeverPanics feeds arbitrary bytes to the decoder: it may
// error, but must not panic or loop.
func FuzzDecompressNeverPanics(f *testing.F) {
	c := NewCodec(Options{})
	seed := c.Compress(nil, []byte("seed data\nwith lines\n"))
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewCodec(Options{})
		_, _ = dec.Decompress(nil, data)
	})
}

// FuzzCutEqualsCompress asserts the page-fit contract of CompressLines:
// cutting its block at any recorded line end yields, byte for byte, the
// block Compress makes of the source through that line end, and Size
// predicts its length. Under newline alignment every newline is a cut.
func FuzzCutEqualsCompress(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("\n"))
	f.Add([]byte("line one\nline two\nline three\n"))
	f.Add([]byte("no newline at the end"))
	f.Add([]byte("a window-crossing line of more than sixteen bytes\nx\n\n"))
	f.Add(logSample(40))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, opts := range []Options{{}, {TableBytes: 256}, {DisableNewlineAlign: true}} {
			ref := NewCodec(opts)
			prefix := []byte("prefix")
			out, cuts := NewCodec(opts).CompressLines(append([]byte(nil), prefix...), data, nil)
			block := out[len(prefix):]
			if !bytes.Equal(block, ref.Compress(nil, data)) {
				t.Fatalf("opts %+v: CompressLines block differs from Compress", opts)
			}
			if nl := bytes.Count(data, []byte{'\n'}); !opts.DisableNewlineAlign && len(cuts) != nl {
				t.Fatalf("opts %+v: %d cuts for %d newlines", opts, len(cuts), nl)
			}
			for i, m := range cuts {
				if m.End < 1 || m.End > len(data) || data[m.End-1] != '\n' {
					t.Fatalf("opts %+v: cut %d ends at %d, not after a newline", opts, i, m.End)
				}
				want := ref.Compress(nil, data[:m.End])
				if m.Size() != len(want) {
					t.Fatalf("opts %+v: cut %d (end %d): Size %d, Compress makes %d bytes", opts, i, m.End, m.Size(), len(want))
				}
				if got := Cut(append([]byte(nil), block...), m); !bytes.Equal(got, want) {
					t.Fatalf("opts %+v: cut %d (end %d) differs from Compress of the prefix", opts, i, m.End)
				}
			}
		}
	})
}
