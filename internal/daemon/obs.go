package daemon

import (
	"context"
	"encoding/json"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"validity/internal/node"
	"validity/internal/obs"
	"validity/internal/obs/fleet"
)

// The daemon's observability surface: every validityd process carries a
// metrics registry and a query tracer (creating them is cheap and the hot
// paths pay one atomic add either way), and -metrics exposes them over
// HTTP — Prometheus text exposition on /metrics, typed JSON snapshots of
// the registry and trace rings on /debug/snapshot and /debug/trace (the
// endpoints the fleet collector scrapes), a JSON snapshot of live and
// retired queries on /debug/queries, and the standard pprof handlers
// under /debug/pprof/. With -fleet, /metrics/fleet additionally serves
// the fleet-rolled-up exposition of every listed process. The listener
// supports port 0; the bound address is logged so scripts (and the CI
// smoke test) can scrape without guessing.

// debugQueries is the /debug/queries payload: every query with live state
// on this process plus the compacted summaries of recently retired ones.
type debugQueries struct {
	Live    []node.QuerySnapshot `json:"live"`
	Retired []node.RetiredStats  `json:"retired"`
}

// startMetricsServer serves the observability endpoints on addr and
// returns a stop function. It fails fast on a bad address — a typo'd
// -metrics must not silently run unobservable. coll may be nil (no
// -fleet): /metrics/fleet then answers 404 with a hint.
func startMetricsServer(addr string, rt *node.Runtime, reg *obs.Registry,
	tracer *obs.Tracer, coll *fleet.Collector, logger *slog.Logger) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.MetricsHandler(reg))
	mux.Handle("/metrics/fleet", fleetMetricsHandler(coll))
	mux.Handle("/debug/snapshot", obs.SnapshotHandler(reg))
	mux.Handle("/debug/trace", obs.TraceHandler(tracer))
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(debugQueries{Live: rt.QuerySnapshots(), Retired: rt.RetiredStats()})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	logger.Info("metrics listening", "addr", ln.Addr().String())
	return func() { srv.Close() }, nil
}

// fleetMetricsHandler serves the fleet-rolled-up exposition: one scrape
// round over every -fleet peer, counters summed, gauges per process,
// histograms bucket-merged so the rendered quantile buckets are real
// fleet-wide distributions. Down peers show up as fleet_peer_up 0.
func fleetMetricsHandler(coll *fleet.Collector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if coll == nil {
			http.Error(w, "no fleet configured; start validityd with -fleet", http.StatusNotFound)
			return
		}
		peers := coll.Registries(r.Context())
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fleet.WriteExposition(w, peers)
	})
}

// slowThreshold is the issue→answer latency above which a query is logged
// as slow with its trace ring: the configured value, or 1.5× the query's
// wall-clock termination deadline 2·D̂δ — a converged query answers well
// inside the deadline, so anything past this is worth a dump.
func slowThreshold(cfg *Config, deadline time.Duration) time.Duration {
	if cfg.SlowQuery > 0 {
		return cfg.SlowQuery
	}
	return deadline + deadline/2
}

// logSlowQuery dumps one slow query. With a fleet collector, it pulls the
// query's trace ring from every listed process and prints one merged,
// causally-ordered timeline — events across the whole fleet sorted by
// query tick, then wire chain depth, then wall time, each line carrying
// the process it came from; peers that fail to answer are warned about
// individually and the rest still merge. Without a collector (or when no
// peer contributed an event) it falls back to the local ring — the dump
// degrades, it never goes silent. The headline carries the query's
// outstanding local work: a read that fell to the cap says what it was
// still waiting on.
func logSlowQuery(logger *slog.Logger, rt *node.Runtime, coll *fleet.Collector,
	id node.QueryID, lat, threshold time.Duration) {
	var inflight int64
	for _, s := range rt.QuerySnapshots() {
		if s.Query == id {
			inflight = s.Inflight
		}
	}
	logger.Warn("slow query", "query", int64(id),
		"lat_ms", lat.Milliseconds(), "threshold_ms", threshold.Milliseconds(), "inflight", inflight)
	if coll != nil {
		peers := coll.QueryTrace(context.Background(), int64(id))
		for _, p := range peers {
			if p.Err != nil {
				logger.Warn("slow query trace scrape failed", "query", int64(id),
					"proc", p.Proc, "addr", p.Addr, "err", p.Err.Error())
			}
		}
		if merged := fleet.MergeTraces(peers); len(merged) > 0 {
			for _, ev := range merged {
				logger.Warn("slow query trace", "query", int64(id), "proc", ev.Proc,
					"event", ev.KindName, "host", ev.Host, "tick", ev.Tick, "chain", ev.Chain,
					"count", ev.Count, "detail", ev.Detail,
					"wall", ev.Wall.Format(time.RFC3339Nano))
			}
			return
		}
	}
	for _, ev := range rt.Trace().Events(int64(id)) {
		logger.Warn("slow query trace", "query", int64(id),
			"event", ev.KindName, "host", ev.Host, "tick", ev.Tick, "chain", ev.Chain,
			"count", ev.Count, "detail", ev.Detail,
			"wall", ev.Wall.Format(time.RFC3339Nano))
	}
}
