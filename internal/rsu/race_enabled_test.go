//go:build race

package rsu

// The race detector drops sync.Pool entries at random, so pooled
// buffers (encoding/json's among them) allocate again under -race.
func init() { raceEnabled = true }
