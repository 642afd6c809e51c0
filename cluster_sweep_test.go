package vwchar_test

import (
	"bytes"
	"testing"

	"vwchar"
	"vwchar/internal/sim"
)

// clusterSweepSHA256 pins clusterSweepSpec's table output.
const clusterSweepSHA256 = "03c964c30546749b35c40761678a95abaa66fd67d4c342091ecfa7a0593b0971"

// clusterSweepSpec is a reduced grid of cluster-topology runs: two
// mixes over a replicated, multi-machine, autoscaled deployment.
func clusterSweepSpec(workers int) vwchar.SweepSpec {
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
					Autoscaler: &vwchar.AutoscalerSpec{
						SLOMillis:       200,
						BootSeconds:     4,
						CooldownSeconds: 8,
					},
				}
			}),
		Replications: 2,
		RootSeed:     42,
		Workers:      workers,
	}
}

// TestClusterSweepByteIdenticalAcrossWorkers extends the determinism
// contract to cluster topologies: replicated tiers, cross-machine
// paths, DB read replicas, and the in-loop autoscaler must produce
// byte-identical aggregated output at workers=1 and workers=8 for a
// fixed seed, exactly like the paper's degenerate grid.
func TestClusterSweepByteIdenticalAcrossWorkers(t *testing.T) {
	table := func(workers int) ([]byte, *vwchar.SweepResult) {
		sr, err := vwchar.Sweep(clusterSweepSpec(workers))
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
	checkTableDigest(t, "cluster", seq, clusterSweepSHA256)
	if !bytes.Equal(seq, par) {
		t.Fatalf("cluster sweep output differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
	}
	// The cluster actually exercised its replicas (the sweep is not
	// vacuous): every point served traffic on both web replicas.
	for i := range sr.Points {
		pr := &sr.Points[i]
		for _, rep := range pr.Reps {
			if len(rep.ReplicaServed) != 3 {
				t.Fatalf("%s: replica split %v", pr.Point.Name, rep.ReplicaServed)
			}
			if rep.ReplicaServed[0] == 0 || rep.ReplicaServed[1] == 0 {
				t.Fatalf("%s: a web replica took no traffic: %v", pr.Point.Name, rep.ReplicaServed)
			}
		}
	}
}
