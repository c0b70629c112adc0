//go:build !race

package stream

import "time"

// testHop is the wall-clock δ used by the live streaming tests; the race
// variant widens it under the detector's slowdown (race_on_test.go). 12 ms
// rather than the daemon tests' 5: `go test ./...` runs packages side by
// side, and on two cores a 5 ms hop lost a window to a neighbour package's
// CPU (an answer of h_q's own value) once in four full runs. The engine
// has no virtual clock yet, so the headroom is wall time; the live tests
// still finish well under a second.
const testHop = 12 * time.Millisecond
