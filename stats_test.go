package mithrilog

import (
	"fmt"
	"testing"

	"mithrilog/internal/core"
	"mithrilog/internal/loggen"
)

// TestEffectiveGBpsIsAgainstFleetRawBytes pins what a search's
// EffectiveGBps divides: the raw bytes of the whole engine — every shard,
// even when a Tenant-routed query scans one — exactly as Stats reports
// them. Lines are left pending between rounds, so each search's own flush
// moves the byte count it must read.
func TestEffectiveGBpsIsAgainstFleetRawBytes(t *testing.T) {
	ds := loggen.Generate(loggen.BGL2, 1200, 30)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng := Open(Config{Shards: shards})
			for round, off := 0, 0; off < len(ds.Lines); round, off = round+1, off+300 {
				if err := eng.IngestBytes(ds.Lines[off : off+150]); err != nil {
					t.Fatal(err)
				}
				if err := eng.IngestTenant("acme", ds.Lines[off+150:off+300]); err != nil {
					t.Fatal(err)
				}
				for _, tenant := range []string{"", "acme"} {
					res, err := eng.Search("RAS", SearchOptions{Tenant: tenant})
					if err != nil {
						t.Fatal(err)
					}
					st := eng.Stats()
					want := core.SearchResult{SimElapsed: res.SimElapsed}.EffectiveThroughput(st.RawBytes) / 1e9
					if res.EffectiveGBps != want || want == 0 {
						t.Fatalf("round %d, tenant %q: EffectiveGBps %v, want %v from %d raw bytes",
							round, tenant, res.EffectiveGBps, want, st.RawBytes)
					}
					if eng.router != nil {
						if got, want := eng.router.RawBytes(), eng.router.Stats().RawBytes; got != want {
							t.Fatalf("round %d: Router.RawBytes %d, Router.Stats().RawBytes %d", round, got, want)
						}
					}
				}
			}
		})
	}
}
