package rsu

import (
	"runtime"
	"testing"
)

// raceEnabled reports a -race build (race_enabled_test.go).
var raceEnabled bool

// TestWarmBroadcastRoundTripAllocations: one advisory from Broadcast to
// Client.Messages on a warm connection costs only what JSON decoding
// must allocate (its string fields), not a boxed 28-field Message on
// either side of the wire. The encoder writes through one Message per
// connection and the client decodes into one per connection.
func TestWarmBroadcastRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr(), "vehicle-alloc")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	waitFor(t, func() bool { return srv.Subscribers() == 1 })

	msg := Message{Type: TypeAdvisory, Intersection: 3, Frame: 7, Ready: true, Safe: true, Scene: "day"}
	roundTrip := func() {
		srv.Broadcast(msg)
		if got, ok := <-cli.Messages(); !ok || got.Frame != msg.Frame {
			t.Fatalf("round trip delivered %+v (open %v)", got, ok)
		}
	}
	for i := 0; i < 50; i++ {
		roundTrip() // warm the encoder and decoder buffers
	}
	const runs = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	// Decoding allocates the two strings, Type and Scene; a boxed
	// Message alone is ≈ 0.35 KiB.
	if allocs > 2.5 || bytes > 128 {
		t.Fatalf("warm round trip: %.2f allocs, %.0f B per advisory; want ≤ 2 and ≤ 128 B", allocs, bytes)
	}
}
