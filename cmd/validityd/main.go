// Command validityd serves a shard of a dynamic network's hosts and
// answers streams of aggregate queries with Single-Site Validity — the
// paper's protocols on real sockets instead of the simulator, multiplexed
// by the node engine so one long-running fleet answers many concurrent
// queries without restarting.
//
// Every process is handed the same topology (generator + seed, or an
// edge-list file) and the same host→address map, and serves a disjoint
// host range. Workers serve indefinitely; the -query process issues
// -queries N queries (up to -concurrency K in flight), each with its own
// QueryID, protocol instance, query clock, and §6.3 cost accounting.
// Query i's aggregate and querying host cycle through the comma-separated
// -agg and -hq lists, so every process derives the identical spec from
// the shared flags and lazily instantiates handlers on first contact with
// a query's frames. Each result is reported next to the oracle's
// q(H_C)/q(H_U) bounds, then a throughput summary closes the stream.
//
// Dynamism — the paper's defining condition — is per query and needs no
// coordination: every process derives each query's membership timeline —
// departures AND joins — from the shared seed and the query id alone,
// enforces it on the hosts it serves (a host is dead *for a query* once
// that query's timeline says so, while still answering every other
// query, and comes back when a join tick fires), and the issuing process
// judges each result against the oracle bounds of that query's own
// timeline — H_U exceeds the initial host set when hosts arrive
// mid-query. Two flags control it, with all times in ticks of δ on each
// query's own clock:
//
//	-kill host@tick,+host@tick           explicit departures (§3.2) and
//	                                     joins ("+": absent until arrival)
//	-churn rate=R[,window=W]             R hosts leave uniformly over [0,W]
//	                                     (window defaults to the deadline)
//	-churn model=sessions,mean=M[,join=D][,window=W]
//	                                     exponential lifetimes, mean M ticks;
//	                                     join=D rebirths departed hosts after
//	                                     exp downtimes of mean D ticks
//	-churn model=burst,hosts=A-B,at=T    hosts A..B leave together at tick T
//	-churn trace=FILE                    recorded host,tick[,event] CSV
//
// Eight overlapping COUNT/MIN queries over a three-process 60-host fleet
// on loopback, six distinct hosts churning out of each query's timeline:
//
//	validityd -transport tcp -topology random -hosts 60 -seed 23 \
//	    -peers "0-19=127.0.0.1:7101,20-39=127.0.0.1:7102,40-59=127.0.0.1:7103" \
//	    -agg count,min -hq 0,7 -churn rate=6,window=12 -serve 20-39 &
//	validityd -transport tcp ... -serve 40-59 &
//	validityd -transport tcp ... -serve 0-19 -query -queries 8 -concurrency 2
//
// The same stream fully in process (channel transport, no sockets):
//
//	validityd -transport chan -topology random -hosts 60 -seed 23 \
//	    -agg count,min -hq 0,7 -churn rate=6 -query -queries 8 -concurrency 2
//
// On a tcp fleet, reads do not sleep out the worst case: the processes
// run the cross-process quiescence plane, in which worker processes
// announce per-query silence — one small control frame after a broadcast
// sweep without local activity, epoch-superseded if activity resumes — to
// the query's issuing process, whose adaptive read then returns at true
// global quiescence instead of the full 2·D̂δ floor. The protocol deadline
// stays as the hard cap, so a lost announce costs latency, never a
// different answer.
//
// Execution is host-sharded: the served hosts are partitioned across a
// fixed pool of worker goroutines (-shards N, default one per CPU), each
// draining a bounded queue, so a process carries thousands of hosts at
// O(shards) goroutines while per-host callbacks stay serialized and
// ordered. -max-live-queries caps concurrently live queries (issued or
// arriving as first-contact frames); past the cap, instantiation is
// rejected with a counted, retryable error instead of growing state.
//
// Observability: every process carries a metrics registry and a per-query
// event tracer; -metrics ADDR exposes them over HTTP — Prometheus text
// exposition on /metrics (engine demux/drop counters, §6.3 sends and
// bytes, per-peer transport traffic, query latency histograms,
// build_info and process uptime), a JSON snapshot of live and retired
// queries on /debug/queries, typed JSON dumps of the whole registry on
// /debug/snapshot and of one query's trace ring on /debug/trace?q=ID,
// and the standard pprof handlers under /debug/pprof/. Port 0 picks a
// free port; the bound address is logged. Machine-parsed result lines
// stay on stdout; diagnostics go to stderr as leveled slog lines
// filtered by -log-level (debug | info | warn | error). A query whose
// issue→answer latency exceeds -slow-query (default 1.5× its 2·D̂δ
// deadline) dumps its trace ring — issue, first traffic, churn
// transitions, drops, answer — at warn level.
//
// -fleet "name=host:port,..." names every process's metrics address and
// arms the cross-process plane on the process that carries it:
// /metrics/fleet scrapes every peer's /debug/snapshot concurrently
// (bounded timeout, per-peer failure tolerance — a dead peer becomes
// fleet_peer_up{proc="..."} 0, never an error) and serves one rolled-up
// exposition — counters summed across the fleet, gauges per-process
// under a proc label, histograms bucket-merged so fleet quantiles are
// real — and slow-query dumps pull every peer's trace ring and print
// one causally-ordered timeline (query tick, then frame chain depth,
// then wall time), each event annotated with its origin process.
// cmd/validitytop renders the same fleet as a live terminal status
// table (-once for a single snapshot):
//
//	validityd -transport chan -hosts 60 -query -queries 8 \
//	    -metrics 127.0.0.1:7190 -fleet "issuer=127.0.0.1:7190" \
//	    -log-level debug
//	curl -s http://127.0.0.1:7190/metrics
//	curl -s http://127.0.0.1:7190/metrics/fleet
//	curl -s http://127.0.0.1:7190/debug/queries
//	curl -s http://127.0.0.1:7190/debug/snapshot
//	curl -s "http://127.0.0.1:7190/debug/trace?q=1"
//	validitytop -fleet "issuer=127.0.0.1:7190" -once
package main

import (
	"log/slog"
	"os"

	"validity/internal/daemon"
	"validity/internal/obs"
)

func main() {
	cfg, err := daemon.ParseArgs("validityd", os.Args[1:])
	if err != nil {
		os.Exit(2) // flag package already printed the message
	}
	if err := daemon.Run(cfg); err != nil {
		// Run validates -log-level itself; fall back to info if it was the
		// invalid flag.
		level, lerr := obs.ParseLevel(cfg.LogLevel)
		if lerr != nil {
			level = slog.LevelInfo
		}
		obs.NewLogger(os.Stderr, level).Error("validityd failed", "err", err)
		os.Exit(1)
	}
}
