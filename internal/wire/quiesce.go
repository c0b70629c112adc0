package wire

import (
	"encoding/binary"
	"fmt"
)

// QuiesceTag is the reserved control tag for cross-process quiescence
// frames. It sits at the top of the protocol tag space, just below
// TagReservedBase, so it can never collide with an aggregation payload:
// protocol message tags grow upward from 1, control tags grow downward
// from 239.
const QuiesceTag uint8 = 239

// Quiesce is the per-query control frame of the quiescence plane. Worker
// processes send announces to a query's issuing process; the issuing
// process sends one Done back to every worker once the query is answered.
// The frame header carries the routing facts (QueryID in Frame.Query, the
// sending process's representative host in Frame.From); the body carries
// the claim itself:
//
//   - Epoch: bumped by the announcer every time local activity resumes
//     after a quiet claim, so any later announce supersedes an earlier
//     one. The issuer discards reports whose epoch is below the highest
//     it has seen from that process.
//   - Activity: the announcer's monotone per-query activity counter
//     (sends + deliveries + drops) at announce time. Diagnostic — the
//     issuer keys only on (Epoch, Quiet) — but it makes traces and a
//     wire capture self-explaining.
//   - Quiet: true for "this process has been silent on this query for at
//     least one broadcast sweep", false for a busy re-announce that
//     withdraws a previous quiet claim.
//   - Done: "h_q has declared; drop this query's state". Only the process
//     serving the query's issuing host may say so — a receiver ignores a
//     Done from anyone else, and one for a query it does not hold. Done
//     wins over Quiet: the two share the flag byte, so a value with both
//     set travels as a Done.
//
// A Quiesce frame is control plane, not protocol traffic: it is never
// counted in a query's §6.3 message/byte cost and never touches the
// activity counter it reports on.
type Quiesce struct {
	Epoch    uint32
	Activity int64
	Quiet    bool
	Done     bool
}

// quiesceBodySize is the fixed body: epoch u32 | activity i64 | flag u8,
// the flag being one of the three values below.
const quiesceBodySize = 13

const (
	quiesceBusy byte = iota
	quiesceQuiet
	quiesceDone
)

func init() {
	RegisterTagger(func(payload any) (uint8, bool) {
		if _, ok := payload.(Quiesce); ok {
			return QuiesceTag, true
		}
		return 0, false
	})
	RegisterPayload(QuiesceTag, PayloadCodec{
		Name: "quiesce",
		Append: func(buf []byte, payload any) ([]byte, error) {
			q := payload.(Quiesce)
			buf = binary.LittleEndian.AppendUint32(buf, q.Epoch)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(q.Activity))
			flag := quiesceBusy
			switch {
			case q.Done:
				flag = quiesceDone
			case q.Quiet:
				flag = quiesceQuiet
			}
			return append(buf, flag), nil
		},
		Size: func(payload any) (int, error) {
			return quiesceBodySize, nil
		},
		Decode: func(body []byte) (any, error) {
			if len(body) != quiesceBodySize {
				return nil, fmt.Errorf("quiesce body is %d bytes, want %d", len(body), quiesceBodySize)
			}
			if body[12] > quiesceDone {
				return nil, fmt.Errorf("quiesce flag %d is none of busy, quiet, done", body[12])
			}
			return Quiesce{
				Epoch:    binary.LittleEndian.Uint32(body[0:4]),
				Activity: int64(binary.LittleEndian.Uint64(body[4:12])),
				Quiet:    body[12] == quiesceQuiet,
				Done:     body[12] == quiesceDone,
			}, nil
		},
	})
}
