package safecross

import (
	"testing"

	"safecross/internal/sim"
)

func TestPedestrianMonitorDetectsCrossing(t *testing.T) {
	mon := NewPedestrianMonitor()
	world := sim.NewWorld(sim.Config{Weather: sim.Day, NoArrivals: true, Seed: 21})

	// Prime the background on an empty scene.
	for i := 0; i < 10; i++ {
		world.Step()
		if _, err := mon.Observe(world.Render()); err != nil {
			t.Fatal(err)
		}
	}
	world.SpawnPedestrian(true)
	alerted := false
	groundTruthSeen := false
	for i := 0; i < 200 && len(world.Pedestrians()) > 0; i++ {
		world.Step()
		alert, err := mon.Observe(world.Render())
		if err != nil {
			t.Fatal(err)
		}
		if world.PedestrianOnRoad() {
			groundTruthSeen = true
			if alert.Crossing {
				alerted = true
			}
		}
	}
	if !groundTruthSeen {
		t.Fatal("test setup broken: pedestrian never on road")
	}
	if !alerted {
		t.Fatal("monitor never alerted on a crossing pedestrian")
	}
}

func TestPedestrianMonitorIgnoresVehicles(t *testing.T) {
	mon := NewPedestrianMonitor()
	world := sim.NewWorld(sim.Config{Weather: sim.Day, NoArrivals: true, Seed: 23})
	for i := 0; i < 10; i++ {
		world.Step()
		if _, err := mon.Observe(world.Render()); err != nil {
			t.Fatal(err)
		}
	}
	// Drive a vehicle through the crosswalk band: it must not raise a
	// pedestrian alert (it is vehicle-sized).
	v := world.SpawnOncoming(float64(sim.CrosswalkX1 + 30))
	for i := 0; i < 60; i++ {
		world.Step()
		alert, err := mon.Observe(world.Render())
		if err != nil {
			t.Fatal(err)
		}
		if alert.Crossing {
			t.Fatalf("vehicle at x=%v misreported as pedestrian", v.X)
		}
	}
}

func TestPedestrianMonitorQuietOnEmptyScene(t *testing.T) {
	mon := NewPedestrianMonitor()
	world := sim.NewWorld(sim.Config{Weather: sim.Day, NoArrivals: true, Seed: 25})
	for i := 0; i < 60; i++ {
		world.Step()
		alert, err := mon.Observe(world.Render())
		if err != nil {
			t.Fatal(err)
		}
		if i > 5 && alert.Crossing {
			t.Fatal("false pedestrian alert on empty scene")
		}
	}
	if mon.Zone().Empty() {
		t.Fatal("monitored zone must not be empty")
	}
}

func TestPedestrianMonitorWarmObserveAllocatesNothing(t *testing.T) {
	mon := NewPedestrianMonitor()
	world := sim.NewWorld(sim.Config{Weather: sim.Day, Seed: 27})
	world.SpawnPedestrian(true)
	frames := world.RunFrames(30)
	n := 0
	observe := func() {
		if _, err := mon.Observe(frames[n%len(frames)]); err != nil {
			t.Fatal(err)
		}
		n++
	}
	for range frames {
		observe()
	}
	if allocs := testing.AllocsPerRun(30, observe); allocs != 0 {
		t.Fatalf("warm Observe allocates %v times a frame, want 0", allocs)
	}
}
