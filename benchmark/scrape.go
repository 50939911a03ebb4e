package main

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"

	"mithrilog"
)

// scrape is one reading of an engine's /metrics exposition, the registry
// the engine already exports (Engine.Obs and, on a fleet, its federation).
// Keys are series names with their labels, e.g.
// `mithrilog_storage_page_reads_total{link="internal"}`; on a fleet the
// per-shard series are summed with the shard label dropped. The harness
// reads counts as deltas of two scrapes and never reaches into the engine.
type scrape map[string]float64

var shardLabel = regexp.MustCompile(`shard="[0-9]+",?`)

func scrapeHandler(h http.Handler) scrape {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := scrape{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		key := shardLabel.ReplaceAllString(line[:sp], "")
		key = strings.Replace(key, ",}", "}", 1)
		key = strings.TrimSuffix(key, "{}")
		out[key] += v
	}
	return out
}

func scrapeEngine(eng *mithrilog.Engine) scrape {
	return scrapeHandler(eng.MetricsHandler())
}

// delta is after minus before for one series.
func (after scrape) delta(before scrape, key string) float64 {
	return after[key] - before[key]
}

// deltaPrefix sums the deltas of every series whose key starts with prefix
// (all label values of one family).
func (after scrape) deltaPrefix(before scrape, prefix string) float64 {
	sum := 0.0
	for k, v := range after {
		if strings.HasPrefix(k, prefix) {
			sum += v - before[k]
		}
	}
	return sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
