// Command mithrilogd runs a MithriLog engine as an HTTP log analytics
// service: logs stream in over POST /ingest, queries arrive over GET
// /search and /grep, and the store can be persisted with periodic saves.
//
// Usage:
//
//	mithrilogd [-addr :8080] [-load store.mlog] [-save store.mlog] [-save-every 5m]
//	           [-cache-mb 64] [-max-in-flight 8] [-queue-depth 64] [-query-timeout 30s]
//	           [-shards 1] [-tenant-in-flight 0] [-shard-timeout 0]
//
// With -shards N (N > 1) the daemon runs an N-shard fleet behind the
// scatter-gather router: ingest accepts a ?tenant= parameter for
// placement, searches fan out with per-shard deadlines, and /metrics
// federates every shard's registry.
//
// -save writes the store as a checksummed segment stream (WriteSegments)
// at every -shards value, and -load reopens one (Reopen). A fleet stream
// records its shard count, and -load adopts it whatever -shards says, so
// tenant placement survives the restart; a one-shard stream cannot be
// -load-ed at -shards > 1. A store saved by an earlier build, in the gob
// save format or a version-1 segment stream, must be re-ingested.
//
// Search-shaped endpoints take limit=N (default 100; 0 = count only):
// the engine returns the N smallest matching lines in byte order — the
// same lines at every -shards value — copying no more than it needs to
// find them, while matches still counts every matching line.
//
// Endpoints are documented in internal/server. Example session:
//
//	mithrilogd -addr :8080 &
//	curl -X POST --data-binary @liberty2.log localhost:8080/ingest
//	curl 'localhost:8080/search?q=failed+AND+NOT+pbs_mom:&limit=5'
//	curl 'localhost:8080/stats'
package main

import (
	"flag"
	"log"
	"net/http"
	"os"
	"time"

	"mithrilog"
	"mithrilog/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	load := flag.String("load", "", "reopen a store saved with -save at startup")
	save := flag.String("save", "", "save the store to this path (with -save-every, periodically)")
	saveEvery := flag.Duration("save-every", 0, "periodic save interval (0 = only on demand)")
	cacheMB := flag.Int64("cache-mb", 64, "decompressed-page cache size in MiB (0 disables)")
	maxInFlight := flag.Int("max-in-flight", 0, "queries executing concurrently (0 = default 8)")
	queueDepth := flag.Int("queue-depth", 0, "queries waiting beyond the in-flight limit before 429 (0 = default 64)")
	queryTimeout := flag.Duration("query-timeout", 30*time.Second, "per-query deadline covering queue wait and scan (0 disables)")
	shards := flag.Int("shards", 1, "engine shards behind the scatter-gather router (1 = single engine)")
	tenantInFlight := flag.Int("tenant-in-flight", 0, "per-tenant concurrent-query quota when sharded (0 = default)")
	shardTimeout := flag.Duration("shard-timeout", 0, "per-shard deadline for scattered queries (0 = query timeout only)")
	flag.Parse()

	cfg := mithrilog.Config{
		CacheBytes:     *cacheMB << 20,
		MaxInFlight:    *maxInFlight,
		QueueDepth:     *queueDepth,
		QueryTimeout:   *queryTimeout,
		Shards:         *shards,
		TenantInFlight: *tenantInFlight,
		ShardTimeout:   *shardTimeout,
	}
	var eng *mithrilog.Engine
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			log.Fatalf("load: %v", err)
		}
		eng, err = mithrilog.Reopen(cfg, f)
		f.Close()
		if err != nil {
			log.Fatalf("load: %v", err)
		}
		st := eng.Stats()
		log.Printf("loaded %s: %d lines, %d pages, %d shard(s)", *load, st.Lines, st.DataPages, st.Shards)
	} else {
		eng = mithrilog.Open(cfg)
	}

	if *save != "" && *saveEvery > 0 {
		go func() {
			for range time.Tick(*saveEvery) {
				if err := saveTo(eng, *save); err != nil {
					log.Printf("periodic save: %v", err)
				} else {
					log.Printf("saved store to %s", *save)
				}
			}
		}()
	}

	srv := server.New(eng)
	log.Printf("mithrilogd listening on %s", *addr)
	if err := http.ListenAndServe(*addr, srv); err != nil {
		log.Fatal(err)
	}
}

// saveTo writes the store's segment stream atomically: to a temp file,
// synced to disk before the rename, so a crash leaves either the old store
// or the whole new one under path, never a torn one.
func saveTo(eng *mithrilog.Engine, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = eng.WriteSegments(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
