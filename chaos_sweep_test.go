package vwchar_test

import (
	"bytes"
	"testing"

	"vwchar"
	"vwchar/internal/sim"
)

// chaosSweepSHA256 pins chaosSweepSpec's table output.
const chaosSweepSHA256 = "37b0624898171416ff91dfb47dad91194664eee347a7e92e779879813d4ad15e"

// chaosSweepSpec is the cluster grid with a fault schedule and the
// full resilience stack armed: a web replica crashes and recovers, the
// DB primary dies for good (forcing a promotion), and the guarded
// serving path retries, ejects, fails over, and sheds through it all.
func chaosSweepSpec(workers int) vwchar.SweepSpec {
	return vwchar.SweepSpec{
		Points: vwchar.SweepGrid(
			[]vwchar.Env{vwchar.Virtualized},
			[]vwchar.MixKind{vwchar.MixBrowsing, vwchar.MixBidding},
			func(c *vwchar.Config) {
				c.Clients = 60
				c.Duration = 30 * sim.Second
				c.Dataset.Users = 2000
				c.Dataset.ActiveItems = 600
				c.Dataset.OldItems = 1300
				c.Dataset.BufferPages = 500
				c.Topology = &vwchar.Topology{
					WebReplicas:    2,
					MaxWebReplicas: 3,
					DBReadReplicas: 1,
					Machines:       2,
					LB:             vwchar.LBJoinShortestQueue,
				}
				c.Faults = &vwchar.FaultSchedule{
					WebCrash: &vwchar.FaultComponent{AtSeconds: 8, MTTRSeconds: 6, Targets: []int{1}},
					DBCrash:  &vwchar.FaultComponent{AtSeconds: 12, Targets: []int{0}},
				}
				c.Resilience = &vwchar.ResilienceSpec{
					TimeoutMillis:         800,
					Retries:               2,
					BackoffMillis:         50,
					HealthEverySeconds:    1,
					EjectAfterChecks:      2,
					FailoverDetectSeconds: 2,
					Breaker:               &vwchar.BreakerSpec{ErrorThreshold: 0.5, WindowRequests: 32, OpenMillis: 500},
				}
			}),
		Replications: 2,
		RootSeed:     42,
		Workers:      workers,
	}
}

// TestChaosSweepByteIdenticalAcrossWorkers extends the determinism
// contract to fault injection: a fixed seed must produce a
// byte-identical fault timeline and byte-identical aggregated sweep
// output at workers=1 and workers=8, crashes, failover, retries and
// all.
func TestChaosSweepByteIdenticalAcrossWorkers(t *testing.T) {
	table := func(workers int) ([]byte, *vwchar.SweepResult) {
		sr, err := vwchar.Sweep(chaosSweepSpec(workers))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sr.WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), sr
	}
	seq, sr := table(1)
	par, _ := table(8)
	checkTableDigest(t, "chaos", seq, chaosSweepSHA256)
	if !bytes.Equal(seq, par) {
		t.Fatalf("chaos sweep output differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
	}
	var totalRetries, totalLost uint64
	for i := range sr.Points {
		pr := &sr.Points[i]
		for _, rep := range pr.Reps {
			// The fault schedule actually expanded and fired: both
			// components hit their targets.
			if len(rep.FaultTimeline) < 3 {
				t.Fatalf("%s: fault timeline %v, want web down+up and db down", pr.Point.Name, rep.FaultTimeline)
			}
			// Request accounting invariant: every issued request ends in
			// exactly one outcome bucket, with in-flight as the remainder.
			rq := rep.Requests
			if rq == nil {
				t.Fatalf("%s: fault run missing request accounting", pr.Point.Name)
			}
			if sum := rq.Served + rq.TimedOut + rq.Shed + rq.Failed + rq.Degraded + rq.InFlight; sum != rq.Issued {
				t.Fatalf("%s: accounting broken: served %d + timed-out %d + shed %d + failed %d + degraded %d + in-flight %d != issued %d",
					pr.Point.Name, rq.Served, rq.TimedOut, rq.Shed, rq.Failed, rq.Degraded, rq.InFlight, rq.Issued)
			}
			// Non-vacuous per rep: the dead primary forced a promotion,
			// traffic was served, and the guard actually intervened.
			if len(rep.Failovers) != 1 {
				t.Fatalf("%s: got %d failovers, want 1", pr.Point.Name, len(rep.Failovers))
			}
			if rq.Served == 0 {
				t.Fatalf("%s: chaos run served nothing: %+v", pr.Point.Name, rq)
			}
			if rep.Guard == nil {
				t.Fatalf("%s: resilience run missing guard stats", pr.Point.Name)
			}
			totalRetries += rep.Guard.Retries
			totalLost += rq.TimedOut + rq.Shed + rq.Failed
		}
	}
	// Across the grid the faults must have cost something: retries
	// fired, and the write-carrying mix lost requests to the dead
	// primary's detection window.
	if totalRetries == 0 {
		t.Fatal("no retries across the whole chaos grid; the faults were vacuous")
	}
	if totalLost == 0 {
		t.Fatal("no request lost across the whole chaos grid; the faults were vacuous")
	}
}
