//go:build race

package protocol

// raceEnabled gates tests that pin allocation counts.
const raceEnabled = true
