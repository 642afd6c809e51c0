package rubis

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"vwchar/internal/rng"
)

// digestTables lists every table of the RUBiS schema in a fixed order.
var digestTables = []string{"regions", "categories", "users", "items", "bids", "comments", "buy_now"}

// writeDigestState hashes the engine's meter, then every table's tuples
// in primary-key order, each tuple length-prefixed.
func writeDigestState(t *testing.T, h hash.Hash, app *App) {
	t.Helper()
	if err := binary.Write(h, binary.BigEndian, app.Engine.Meter()); err != nil {
		t.Fatal(err)
	}
	for _, name := range digestTables {
		tbl, err := app.Engine.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		pk, err := tbl.Schema.ColIndex("id")
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(name))
		n := 0
		err = tbl.Scan(pk, math.MinInt64, math.MaxInt64, 0, func(tuple []byte) bool {
			var l [4]byte
			binary.BigEndian.PutUint32(l[:], uint32(len(tuple)))
			h.Write(l[:])
			h.Write(tuple)
			n++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != tbl.Rows() {
			t.Fatalf("%s: scanned %d tuples, table holds %d", name, n, tbl.Rows())
		}
	}
}

// TestPopulationAndWritesDigest pins the bytes the engine holds after
// population and after a seeded run of the five write interactions:
// every table's tuples in primary-key order plus the engine meter
// (pages written, WAL bytes, rows, page hits and misses). Any change to
// tuple encoding, load order, index layout or write-path metering moves
// the digest.
func TestPopulationAndWritesDigest(t *testing.T) {
	const want = "8ff15d2509d52825fe9a230ad5b7ce384acd2429f7fef4cd945ab8b2d430a6a0"
	app, err := NewApp(smallDataset(), rng.NewStream(42))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	writeDigestState(t, h, app)

	writes := writeInteractions()
	r := rng.NewStream(43)
	params := DefaultCostParams()
	var res Result
	for range 300 {
		sess := Session{
			UserID:     int64(r.Intn(int(app.TotalUsers()))),
			ItemID:     int64(r.Intn(int(app.TotalItems()) + 5)),
			CategoryID: int64(r.Intn(app.Config.Categories)),
			ToUserID:   int64(r.Intn(int(app.TotalUsers()))),
		}
		if err := app.ExecuteInto(&res, writes[r.Intn(len(writes))], &sess, r, params); err != nil {
			t.Fatal(err)
		}
	}
	writeDigestState(t, h, app)

	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("population + writes digest = %s, want %s", got, want)
	}
}
