package rubisdb

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// The reference below replays the decode path the row cursor replaced:
// an index lookup into a fresh RID slice, then for each RID a copying
// fetch, the meter increments and decodeRow.

func refFetch(t *Table, rid RID) (Row, error) {
	tuple, err := fetchCopy(t.heap, rid)
	if err != nil {
		return nil, err
	}
	t.engine.meter.RowsRead++
	t.engine.meter.BytesOut += float64(len(tuple))
	return decodeRow(t.Schema, tuple)
}

func refGet(t *Table, key int64) (Row, error) {
	rids, err := t.pk.Search(key)
	if err != nil || len(rids) == 0 {
		return nil, err
	}
	return refFetch(t, DecodeRID(rids[0]))
}

// refScan fetches the first stop rows (stop <= 0: all) of up to limit
// index matches.
func refScan(t *Table, tree *BTree, lo, hi int64, limit, stop int) ([]Row, error) {
	var rids []RID
	err := tree.ScanRange(lo, hi, func(_ int64, v uint64) bool {
		rids = append(rids, DecodeRID(v))
		return limit <= 0 || len(rids) < limit
	})
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, rid := range rids {
		row, err := refFetch(t, rid)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if len(rows) == stop {
			break
		}
	}
	return rows, nil
}

// curGet and curScan read the same rows through the cursor, decoding
// the tuple bytes inside the callback and checking Int64At against the
// decoded values.
func curGet(tb testing.TB, t *Table, key int64) Row {
	tb.Helper()
	var row Row
	found, err := t.Get(key, func(tuple []byte) {
		row = decodeChecked(tb, t.Schema, tuple)
	})
	if err != nil {
		tb.Fatal(err)
	}
	if found != (row != nil) {
		tb.Fatalf("Get(%d) found=%v but row=%v", key, found, row)
	}
	return row
}

func curScan(tb testing.TB, t *Table, col int, lo, hi int64, limit, stop int) []Row {
	tb.Helper()
	var rows []Row
	err := t.Scan(col, lo, hi, limit, func(tuple []byte) bool {
		rows = append(rows, decodeChecked(tb, t.Schema, tuple))
		return len(rows) != stop
	})
	if err != nil {
		tb.Fatal(err)
	}
	return rows
}

func decodeChecked(tb testing.TB, s Schema, tuple []byte) Row {
	tb.Helper()
	row, err := decodeRow(s, tuple)
	if err != nil {
		tb.Fatal(err)
	}
	for col, c := range s {
		if c.Type != TInt64 {
			continue
		}
		if got := s.Int64At(tuple, col); got != row[col] {
			tb.Fatalf("Int64At(%s) = %d, decoded %v", c.Name, got, row[col])
		}
	}
	return row
}

// lastKeyOfLeaf returns the key stored as the final entry of a leaf
// that has a right sibling: the PK probe for it must pin that sibling.
func lastKeyOfLeaf(tb testing.TB, tree *BTree) int64 {
	tb.Helper()
	f, err := tree.findLeaf(encodeKey(math.MinInt64), 0)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Unpin(false)
	n := nodeCount(f.Page)
	if n < 2 || leafNext(f.Page) == noNext {
		tb.Fatal("first leaf has no right sibling; grow the table")
	}
	return decodeKey(leafRawKey(f.Page, n-1))
}

func pageTouches(e *Engine) uint64 { return e.meter.PageHits + e.meter.PageMisses }

// TestCursorMatchesDecodePath is the cursor's equivalence property: on
// two copy-on-write views of one golden, a random sequence of Get, Scan
// and Count calls through the cursor on one view and through the old
// decode path on the other yields the same rows and, after every call,
// identical meters — page hits, misses and write-backs included — so
// the buffer pools evolve in lockstep. Inserts, applied to both views,
// keep the trees splitting under the probes.
func TestCursorMatchesDecodePath(t *testing.T) {
	eng, _ := buildPopulated(t, 5000, 48)
	g, err := eng.Seal()
	if err != nil {
		t.Fatal(err)
	}
	lastKey := lastKeyOfLeaf(t, g.NewView().MustTable("users").pk)
	cur, ref := g.NewView(), g.NewView()
	ct, rt := cur.MustTable("users"), ref.MustTable("users")
	const idCol, regionCol = 0, 2
	regionTree, err := rt.index(regionCol)
	if err != nil {
		t.Fatal(err)
	}

	// The last-in-leaf probe pins one page more than its left neighbour.
	before := pageTouches(cur)
	curGet(t, ct, lastKey-1)
	mid := pageTouches(cur) - before
	before = pageTouches(cur)
	curGet(t, ct, lastKey)
	if last := pageTouches(cur) - before; last != mid+1 {
		t.Fatalf("probe of last-in-leaf key %d touched %d pages, neighbour %d; want one more", lastKey, last, mid)
	}
	for _, k := range []int64{lastKey - 1, lastKey} {
		if _, err := refGet(rt, k); err != nil {
			t.Fatal(err)
		}
	}

	r := rand.New(rand.NewSource(1))
	next := int64(1 << 20)
	for op := 0; op < 4000; op++ {
		var got, want []Row
		switch r.Intn(7) {
		case 0:
			got = []Row{curGet(t, ct, lastKey)}
			row, err := refGet(rt, lastKey)
			if err != nil {
				t.Fatal(err)
			}
			want = []Row{row}
		case 1, 2:
			key := int64(r.Intn(5200)) - 10
			got = []Row{curGet(t, ct, key)}
			row, err := refGet(rt, key)
			if err != nil {
				t.Fatal(err)
			}
			want = []Row{row}
		case 3:
			lo := int64(r.Intn(52)) - 1
			hi := lo + int64(r.Intn(3))
			limit, stop := r.Intn(12), r.Intn(6)
			got = curScan(t, ct, regionCol, lo, hi, limit, stop)
			if want, err = refScan(rt, regionTree, lo, hi, limit, stop); err != nil {
				t.Fatal(err)
			}
		case 4:
			lo := int64(r.Intn(5200))
			hi := lo + int64(r.Intn(400))
			limit := r.Intn(30)
			got = curScan(t, ct, idCol, lo, hi, limit, 0)
			if want, err = refScan(rt, rt.pk, lo, hi, limit, 0); err != nil {
				t.Fatal(err)
			}
		case 5:
			region := int64(r.Intn(50))
			n, err := ct.Count(regionCol, region, region)
			if err != nil {
				t.Fatal(err)
			}
			var m int
			if err := regionTree.ScanRange(region, region, func(int64, uint64) bool {
				m++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if n != m {
				t.Fatalf("op %d: Count = %d, index scan %d", op, n, m)
			}
		case 6:
			row := Row{next, "cursor-user", int64(r.Intn(50)), int64(0)}
			next++
			for _, tb := range []*Table{ct, rt} {
				if _, err := insertRow(tb, row); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: cursor rows %v, decode path %v", op, got, want)
		}
		if cur.Meter() != ref.Meter() {
			t.Fatalf("op %d: meters diverged\ncursor %+v\ndecode %+v", op, cur.Meter(), ref.Meter())
		}
	}
	if cur.Meter().PageMisses == 0 {
		t.Fatal("the buffer pool never missed; shrink it so eviction order is exercised")
	}
}

// TestUpdateNumericPatchesInPlace: the typed update writes the same
// tuple bytes, and therefore the same WAL record, as re-encoding the
// decoded row with the new values.
func TestUpdateNumericPatchesInPlace(t *testing.T) {
	e := newTestEngine(t)
	schema := Schema{
		{Name: "id", Type: TInt64},
		{Name: "name", Type: TString},
		{Name: "desc", Type: TString},
		{Name: "price", Type: TFloat64},
		{Name: "bids", Type: TInt64},
	}
	items, err := e.CreateTable("items", schema, "id")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := insertRow(items, Row{int64(4), "lamp", "brass, working", 20.5, int64(2)}); err != nil {
		t.Fatal(err)
	}
	want, err := encodeRow(schema, Row{int64(4), "lamp", "brass, working", 31.25, int64(3)})
	if err != nil {
		t.Fatal(err)
	}
	wal := e.wal.TotalBytes
	if err := items.UpdateNumeric(4, SetFloat64(3, 31.25), SetInt64(4, 3)); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if _, err := items.Get(4, func(tuple []byte) { got = append(got, tuple...) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("updated tuple %x, want %x", got, want)
	}
	walWant := NewWAL(&Meter{})
	walWant.AppendRecord(items.id, walUpdate, want)
	if d := e.wal.TotalBytes - wal; d != walWant.TotalBytes {
		t.Fatalf("update logged %v WAL bytes, want %v", d, walWant.TotalBytes)
	}
}
