package rubis

import (
	"testing"

	"vwchar/internal/rng"
)

// readInteractions lists every interaction that issues no write.
func readInteractions() []Interaction {
	var out []Interaction
	for _, k := range AllInteractions() {
		switch k {
		case RegisterUser, RegisterItem, StoreBid, StoreBuyNow, StoreComment:
		default:
			out = append(out, k)
		}
	}
	return out
}

// BenchmarkExecuteReads runs the read interactions, one per op in
// turn, through ExecuteInto on a view attached to a golden snapshot:
// the closed-loop driver's request path minus the write interactions.
// Row access goes through the zero-copy cursor, so the path allocates
// nothing once the view's buffer pool and the Result are warm.
func BenchmarkExecuteReads(b *testing.B) {
	snap, err := NewSnapshot(smallDataset(), 7)
	if err != nil {
		b.Fatal(err)
	}
	app := snap.Attach()
	defer app.Release()
	r := rng.NewStream(9)
	params := DefaultCostParams()
	sess := Session{UserID: 5, ItemID: 10, CategoryID: 2, RegionID: 3, ToUserID: 7}
	reads := readInteractions()
	var res Result
	for range 4 {
		for _, k := range reads {
			if err := app.ExecuteInto(&res, k, &sess, r, params); err != nil {
				b.Fatal(err)
			}
		}
	}
	i := 0
	for b.Loop() {
		if err := app.ExecuteInto(&res, reads[i%len(reads)], &sess, r, params); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// writeInteractions lists the five interactions that write rows.
func writeInteractions() []Interaction {
	return []Interaction{RegisterUser, RegisterItem, StoreBid, StoreBuyNow, StoreComment}
}

// BenchmarkExecuteWrites runs the five write interactions, one per op
// in turn, through ExecuteInto on a view attached to a golden snapshot:
// the request path's inserts and in-place updates. Tuples are built in
// each table's reused scratch buffer, so a write allocates nothing
// beyond the pages and index nodes the growing tables need.
func BenchmarkExecuteWrites(b *testing.B) {
	snap, err := NewSnapshot(smallDataset(), 7)
	if err != nil {
		b.Fatal(err)
	}
	app := snap.Attach()
	defer app.Release()
	r := rng.NewStream(9)
	params := DefaultCostParams()
	sess := Session{UserID: 5, ItemID: 10, CategoryID: 2, RegionID: 3, ToUserID: 7}
	writes := writeInteractions()
	var res Result
	for range 4 {
		for _, k := range writes {
			if err := app.ExecuteInto(&res, k, &sess, r, params); err != nil {
				b.Fatal(err)
			}
		}
	}
	i := 0
	for b.Loop() {
		if err := app.ExecuteInto(&res, writes[i%len(writes)], &sess, r, params); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkPopulate builds and populates the default dataset on every
// op, without the snapshot cache: the set-up cost a fresh-dataset
// replication pays.
func BenchmarkPopulate(b *testing.B) {
	for b.Loop() {
		if _, err := NewApp(DefaultDataset(), rng.NewStream(3)); err != nil {
			b.Fatal(err)
		}
	}
}
