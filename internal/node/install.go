package node

import (
	"validity/internal/protocol"
	"validity/internal/sim"
)

// BuildInstance materializes p's handlers for the hosts rt serves, and for
// those only — the standard QueryFactory body. seed (QuerySeed of the
// fleet's seed and the query id) is what the query's backend derives each
// host's coin stream from. A query's protocol state on a process is
// O(local hosts): p is validated against G once, and nothing is built for
// a host another process serves, so on a process that does not serve h_q
// the instance's Protocol.Result() reports no result.
func BuildInstance(rt *Runtime, p protocol.Protocol, seed int64) (*QueryInstance, error) {
	if err := p.Init(rt.g); err != nil {
		return nil, err
	}
	hs := make([]sim.Handler, rt.g.Len())
	for _, h := range rt.localHosts {
		hs[h] = p.NewHost(h)
	}
	return &QueryInstance{Protocol: p, Handlers: hs, Seed: seed, Deadline: p.Deadline()}, nil
}
