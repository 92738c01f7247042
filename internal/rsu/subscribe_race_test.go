package rsu

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestSubscribeRacingShardMove: vehicles subscribe to an intersection
// while it moves off the node (SetRoutes, then RedirectIntersection,
// the order a fleet agent applies an assignment in). Every vehicle
// must learn the new owner — redirected at subscribe, or welcomed and
// then redirected in-stream; none may be welcomed and forgotten.
func TestSubscribeRacingShardMove(t *testing.T) {
	const (
		intersection = 5
		rounds       = 40
		vehicles     = 8
		newOwner     = "127.0.0.1:9"
	)
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for round := 0; round < rounds; round++ {
		epoch := int64(2*round + 1)
		srv.SetRoutes(epoch, []int{intersection}, map[int]string{intersection: srv.Addr()})
		subscribed := srv.Stats().Subscribed

		errs := make(chan error, vehicles)
		var wg sync.WaitGroup
		for v := 0; v < vehicles; v++ {
			wg.Add(1)
			go func(vehicle string) {
				defer wg.Done()
				errs <- subscribeUntilRedirected(vehicle, srv.Addr(), intersection, newOwner)
			}(fmt.Sprintf("v%d-%d", round, v))
		}
		// Move the intersection once some vehicles are in, so the rest
		// of the subscribes race the move.
		for srv.Stats().Subscribed < subscribed+vehicles/2 {
			runtime.Gosched()
		}
		srv.SetRoutes(epoch+1, nil, map[int]string{intersection: newOwner})
		srv.RedirectIntersection(intersection, newOwner)

		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Errorf("round %d: %v", round, err)
			}
		}
		if t.Failed() {
			return
		}
	}
}

// subscribeUntilRedirected subscribes a vehicle and reads until it is
// sent to want: at subscribe, or in-stream after a welcome.
func subscribeUntilRedirected(vehicle, addr string, intersection int, want string) error {
	sub := Message{Type: TypeSubscribe, Vehicle: vehicle, Intersection: intersection}
	conn, dec, _, target, err := dialSubscribe(addr, sub, 2*time.Second)
	if err != nil {
		if errors.Is(err, ErrHandshake) && target == want {
			return nil
		}
		return fmt.Errorf("vehicle %s: %w", vehicle, err)
	}
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		return err
	}
	var msg Message
	if err := dec.Decode(&msg); err != nil {
		return fmt.Errorf("vehicle %s welcomed but never redirected: %w", vehicle, err)
	}
	if msg.Type != TypeRedirect || msg.Addr != want {
		return fmt.Errorf("vehicle %s: got %+v after welcome, want a redirect to %s", vehicle, msg, want)
	}
	return nil
}
