package rubisdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// ColType is a column type.
type ColType int

// Column types supported by the RUBiS schema.
const (
	TInt64 ColType = iota
	TFloat64
	TString
)

// Column describes one schema column.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered column list.
type Schema []Column

// ColIndex returns the position of the named column or an error.
func (s Schema) ColIndex(name string) (int, error) {
	for i, c := range s {
		if c.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("rubisdb: no column %q", name)
}

var typeNames = [...]string{TInt64: "int64", TFloat64: "float64", TString: "string"}

// String names the column type.
func (c ColType) String() string {
	if uint(c) < uint(len(typeNames)) {
		return typeNames[c]
	}
	return fmt.Sprintf("ColType(%d)", int(c))
}

// Tuple builds one row of a table in the table's reused encoding buffer.
// Fields are appended in schema order: Int64 and Float64 as 8 bytes
// big-endian, String and Bytes as a u16 length prefix and the bytes. A
// field of the wrong type, a field past the schema's arity or a string
// over 0xFFFF bytes records the tuple's error, as does a tuple short of
// the arity; Insert and BulkInsert return it instead of storing the
// row. Start each row with Table.Tuple. Pages and the WAL copy what
// they store, so one buffer per table serves every write; a tuple is
// valid until the next Tuple or UpdateNumeric on its table.
type Tuple struct {
	schema Schema
	buf    []byte
	col    int
	err    error
}

// Tuple starts a new, empty row for t.
func (t *Table) Tuple() *Tuple {
	t.tuple = Tuple{schema: t.Schema, buf: t.tuple.buf[:0]}
	return &t.tuple
}

// Int64 appends an int64 field.
func (b *Tuple) Int64(v int64) *Tuple {
	if b.field(TInt64) {
		b.buf = binary.BigEndian.AppendUint64(b.buf, uint64(v))
	}
	return b
}

// Float64 appends a float64 field.
func (b *Tuple) Float64(v float64) *Tuple {
	if b.field(TFloat64) {
		b.buf = binary.BigEndian.AppendUint64(b.buf, math.Float64bits(v))
	}
	return b
}

// String appends a string field.
func (b *Tuple) String(v string) *Tuple { return appendString(b, v) }

// Bytes appends a string field held in a byte slice, so a caller can
// format a value into a stack buffer instead of building a string.
func (b *Tuple) Bytes(v []byte) *Tuple { return appendString(b, v) }

func appendString[S string | []byte](b *Tuple, v S) *Tuple {
	if !b.field(TString) {
		return b
	}
	if len(v) > 0xFFFF {
		b.err = fmt.Errorf("rubisdb: column %q string too long (%d)", b.schema[b.col-1].Name, len(v))
		return b
	}
	b.buf = binary.BigEndian.AppendUint16(b.buf, uint16(len(v)))
	b.buf = append(b.buf, v...)
	return b
}

// field checks that the next column has type typ and moves past it.
func (b *Tuple) field(typ ColType) bool {
	switch {
	case b.err != nil:
		return false
	case b.col == len(b.schema):
		b.err = fmt.Errorf("rubisdb: row has more fields than the schema's %d", len(b.schema))
		return false
	case b.schema[b.col].Type != typ:
		c := b.schema[b.col]
		b.err = fmt.Errorf("rubisdb: column %q wants %s, got %s", c.Name, c.Type, typ)
		return false
	}
	b.col++
	return true
}

// Table is a heap file with a unique int64 primary key index and any
// number of (non-unique) int64 secondary indexes.
type Table struct {
	Name   string
	Schema Schema

	id      uint32
	heap    *Heap
	pkCol   int
	pk      *BTree
	secCols []int
	secs    []*BTree

	engine *Engine
	// tuple is the reused row builder of this table's write paths.
	tuple Tuple
	// rids is the reused RID scratch of Scan.
	rids []RID
}

// walInsert and walUpdate are WAL op codes.
const (
	walInsert = 1
	walUpdate = 2
)

// encoded returns the bytes of row, which must come from t.Tuple, or
// the error building it recorded.
func (t *Table) encoded(row *Tuple) ([]byte, error) {
	switch {
	case row != &t.tuple:
		return nil, fmt.Errorf("table %s: tuple was not started by this table", t.Name)
	case row.err != nil:
		return nil, fmt.Errorf("table %s: %w", t.Name, row.err)
	case row.col != len(t.Schema):
		return nil, fmt.Errorf("table %s: row arity %d != schema arity %d", t.Name, row.col, len(t.Schema))
	}
	return row.buf, nil
}

// Insert stores row, maintaining all indexes, and returns its RID.
func (t *Table) Insert(row *Tuple) (RID, error) {
	tuple, err := t.encoded(row)
	if err != nil {
		return RID{}, err
	}
	key := t.Schema.Int64At(tuple, t.pkCol)
	if _, dup, err := t.lookupPK(key); err != nil {
		return RID{}, err
	} else if dup {
		return RID{}, fmt.Errorf("table %s: duplicate primary key %d", t.Name, key)
	}
	rid, err := t.heap.Insert(tuple)
	if err != nil {
		return RID{}, err
	}
	if err := t.pk.Insert(key, rid.Encode()); err != nil {
		return RID{}, err
	}
	for i, col := range t.secCols {
		if err := t.secs[i].Insert(t.Schema.Int64At(tuple, col), rid.Encode()); err != nil {
			return RID{}, err
		}
	}
	t.engine.meter.RowsWritten++
	t.engine.wal.AppendRecord(t.id, walInsert, tuple)
	return rid, nil
}

// BulkInsert loads rows into an empty table through the sorted
// bulk-load path: tuples are appended to the heap once, then the
// primary-key and secondary indexes are built with BTree.BulkLoad
// instead of one root-to-leaf descent per row. fill emits the rows: it
// builds each with t.Tuple and passes it to add, in strictly ascending
// primary-key order (the dataset generators emit them that way). The
// first row add rejects ends the load: later rows are ignored and
// BulkInsert returns that error. Secondary entries are sorted here
// before loading. WAL traffic is batched — one framed record per
// heap page of rows rather than one per row (the LOAD DATA shape) —
// carrying the same row images with far less framing overhead.
func (t *Table) BulkInsert(fill func(add func(row *Tuple))) error {
	if t.heap.Rows != 0 || t.pk.Len() != 0 {
		return fmt.Errorf("table %s: BulkInsert needs an empty table", t.Name)
	}
	var pkEntries []Entry
	secEntries := make([][]Entry, len(t.secCols))
	// One WAL record accumulates per heap page; rows land on ascending
	// pages, so a page switch means the previous batch is complete.
	var batchPage uint32
	var batchRows, batchBytes int
	add := func(row *Tuple) error {
		tuple, err := t.encoded(row)
		if err != nil {
			return err
		}
		key := t.Schema.Int64At(tuple, t.pkCol)
		if n := len(pkEntries); n > 0 && key <= pkEntries[n-1].Key {
			return fmt.Errorf("table %s: BulkInsert rows must be sorted by unique primary key (%d after %d)", t.Name, key, pkEntries[n-1].Key)
		}
		rid, err := t.heap.Insert(tuple)
		if err != nil {
			return err
		}
		if batchRows > 0 && rid.PageNo != batchPage {
			t.engine.wal.AppendBatchRecord(t.id, walInsert, batchRows, batchBytes)
			batchRows, batchBytes = 0, 0
		}
		batchPage = rid.PageNo
		batchRows++
		batchBytes += len(tuple)
		enc := rid.Encode()
		pkEntries = appendEntry(pkEntries, Entry{Key: key, Value: enc})
		for si, col := range t.secCols {
			secEntries[si] = appendEntry(secEntries[si], Entry{Key: t.Schema.Int64At(tuple, col), Value: enc})
		}
		t.engine.meter.RowsWritten++
		return nil
	}
	var err error
	fill(func(row *Tuple) {
		if err == nil {
			err = add(row)
		}
	})
	if err != nil {
		return err
	}
	if batchRows > 0 {
		t.engine.wal.AppendBatchRecord(t.id, walInsert, batchRows, batchBytes)
	}
	if err := t.pk.BulkLoad(pkEntries); err != nil {
		return err
	}
	for si, entries := range secEntries {
		sortEntriesByKey(entries)
		if err := t.secs[si].BulkLoad(entries); err != nil {
			return err
		}
	}
	return nil
}

// appendEntry appends e, doubling a full slice: the row count of a bulk
// load is not known up front, and append's 1.25x growth of large slices
// would allocate about five times the final index entries.
func appendEntry(s []Entry, e Entry) []Entry {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 64))
	}
	return append(s, e)
}

// sortEntriesByKey sorts index entries by (Key, Value). BulkInsert
// appends entries in strictly increasing Value (RID) order, so any
// stable sort by Key alone yields the full (Key, Value) order; when the
// key range is dense — secondary keys are row ids drawn from a bounded
// id space — a stable counting sort replaces the O(n log n) comparison
// sort that used to dominate dataset population. Sparse or negative key
// ranges fall back to the comparison sort.
func sortEntriesByKey(entries []Entry) {
	if len(entries) < 64 {
		slices.SortFunc(entries, compareEntries)
		return
	}
	lo, hi := entries[0].Key, entries[0].Key
	for _, e := range entries[1:] {
		if e.Key < lo {
			lo = e.Key
		}
		if e.Key > hi {
			hi = e.Key
		}
	}
	// Unsigned subtraction is exact for any int64 pair with hi >= lo,
	// so a span wider than int64 (lo near MinInt64, hi near MaxInt64)
	// falls through to the comparison sort instead of wrapping.
	span := uint64(hi) - uint64(lo)
	if span > uint64(4*len(entries))+1024 {
		slices.SortFunc(entries, compareEntries)
		return
	}
	counts := make([]int32, span+2)
	for _, e := range entries {
		counts[uint64(e.Key)-uint64(lo)+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	out := make([]Entry, len(entries))
	for _, e := range entries {
		c := uint64(e.Key) - uint64(lo)
		out[counts[c]] = e
		counts[c]++
	}
	copy(entries, out)
}

// compareEntries orders index entries by (Key, Value) with an explicit
// short-circuit: the generic cmp.Or(cmp.Compare, cmp.Compare) form
// evaluates both comparisons on every call, which shows up hard in the
// bulk-load sort of every replication's dataset population.
func compareEntries(a, b Entry) int {
	if a.Key != b.Key {
		if a.Key < b.Key {
			return -1
		}
		return 1
	}
	if a.Value != b.Value {
		if a.Value < b.Value {
			return -1
		}
		return 1
	}
	return 0
}

// Row cursor. Get and Scan hand the caller each fetched tuple's bytes
// straight from the pinned heap page, with no copy; typed accessors such
// as Schema.Int64At read single columns from them. The contract:
//
//   - The tuple bytes alias the buffer-pool page and are valid only
//     inside fn. Copy what must outlive the call.
//   - fn must not call back into the same engine. Each tuple's page stays
//     pinned while fn runs, and a nested lookup would both see that pin
//     and interleave its page touches with the cursor's.
//   - Every fetched tuple pins its heap page once and is metered as one
//     RowsRead plus its length in BytesOut. Page hits and misses feed
//     the DB tier's cost receipts, so the pin sequence is part of the
//     simulated output.

// Get calls fn with the tuple whose primary key is key and reports
// whether one exists. A nil fn probes and meters the row without
// reading it.
func (t *Table) Get(key int64, fn func(tuple []byte)) (bool, error) {
	rid, ok, err := t.lookupPK(key)
	if err != nil || !ok {
		return false, err
	}
	f, tuple, err := t.pin(rid)
	if err != nil {
		return false, err
	}
	if fn != nil {
		fn(tuple)
	}
	f.Unpin(false)
	return true, nil
}

// lookupPK returns the RID stored under primary key key. Like
// BTree.Search it scans the whole [key, key] range instead of stopping
// at the match: when the match is its leaf's last entry, the scan pins
// the next leaf too, and that page touch is part of the metered
// sequence.
func (t *Table) lookupPK(key int64) (rid RID, ok bool, err error) {
	err = t.pk.ScanRange(key, key, func(_ int64, v uint64) bool {
		if !ok {
			rid, ok = DecodeRID(v), true
		}
		return true
	})
	return rid, ok, err
}

// pin pins rid's heap page and meters one row read of the tuple; the
// caller unpins the returned frame.
func (t *Table) pin(rid RID) (*Frame, []byte, error) {
	f, tuple, err := t.heap.pin(rid)
	if err != nil {
		return nil, nil, err
	}
	t.engine.meter.RowsRead++
	t.engine.meter.BytesOut += float64(len(tuple))
	return f, tuple, nil
}

// Scan calls fn, in index order, with up to limit tuples whose column
// col lies in [lo, hi] (limit <= 0 means unlimited); fn returning false
// stops the scan. The column must be the primary key or carry a
// secondary index. The matching RIDs are collected from the index
// before the first heap page is pinned, so index and heap page touches
// never interleave.
func (t *Table) Scan(col int, lo, hi int64, limit int, fn func(tuple []byte) bool) error {
	tree, err := t.index(col)
	if err != nil {
		return err
	}
	// t.rids is used as a stack: this scan owns rids[start:end] and
	// truncates back to start on return, so the scratch is reused
	// across scans without allocating.
	start := len(t.rids)
	err = tree.ScanRange(lo, hi, func(_ int64, v uint64) bool {
		t.rids = append(t.rids, DecodeRID(v))
		return limit <= 0 || len(t.rids)-start < limit
	})
	end := len(t.rids)
	for i := start; i < end && err == nil; i++ {
		var f *Frame
		var tuple []byte
		f, tuple, err = t.pin(t.rids[i])
		if err != nil {
			break
		}
		more := fn(tuple)
		f.Unpin(false)
		if !more {
			break
		}
	}
	t.rids = t.rids[:start]
	return err
}

// Count counts index entries with lo <= column col <= hi without
// fetching rows (an index-only scan).
func (t *Table) Count(col int, lo, hi int64) (int, error) {
	tree, err := t.index(col)
	if err != nil {
		return 0, err
	}
	n := 0
	err = tree.ScanRange(lo, hi, func(int64, uint64) bool {
		n++
		return true
	})
	return n, err
}

// index returns the B+tree over column col.
func (t *Table) index(col int) (*BTree, error) {
	if col == t.pkCol {
		return t.pk, nil
	}
	for i, c := range t.secCols {
		if c == col {
			return t.secs[i], nil
		}
	}
	if col < 0 || col >= len(t.Schema) {
		return nil, fmt.Errorf("rubisdb: table %s has no column %d", t.Name, col)
	}
	return nil, fmt.Errorf("rubisdb: table %s has no index on %q", t.Name, t.Schema[col].Name)
}

// offset returns where column col's encoding starts in tuple.
func (s Schema) offset(tuple []byte, col int) int {
	off := 0
	for _, c := range s[:col] {
		if c.Type == TString {
			off += 2 + int(binary.BigEndian.Uint16(tuple[off:]))
		} else {
			off += 8
		}
	}
	return off
}

// Int64At reads int64 column col from a tuple encoded against s.
func (s Schema) Int64At(tuple []byte, col int) int64 {
	return int64(binary.BigEndian.Uint64(tuple[s.offset(tuple, col):]))
}

// Set is one fixed-width column assignment for UpdateNumeric.
type Set struct {
	Col  int
	typ  ColType
	bits uint64
}

// SetInt64 assigns v to int64 column col.
func SetInt64(col int, v int64) Set { return Set{Col: col, typ: TInt64, bits: uint64(v)} }

// SetFloat64 assigns v to float64 column col.
func SetFloat64(col int, v float64) Set {
	return Set{Col: col, typ: TFloat64, bits: math.Float64bits(v)}
}

// UpdateNumeric overwrites fixed-width (int64/float64) columns of the row
// with the given primary key, in place. Indexed columns cannot be
// changed — the RUBiS write paths only touch unindexed numerics (price,
// counters). The row is fetched (and metered) like a Get, patched in a
// private copy, and written back through the heap with one WAL record
// of the full new tuple.
func (t *Table) UpdateNumeric(key int64, sets ...Set) error {
	for _, s := range sets {
		if s.Col < 0 || s.Col >= len(t.Schema) {
			return fmt.Errorf("table %s: no column %d", t.Name, s.Col)
		}
		name := t.Schema[s.Col].Name
		if s.Col == t.pkCol {
			return fmt.Errorf("table %s: cannot update primary key", t.Name)
		}
		for _, col := range t.secCols {
			if col == s.Col {
				return fmt.Errorf("table %s: cannot update indexed column %q", t.Name, name)
			}
		}
		switch typ := t.Schema[s.Col].Type; {
		case typ == TString:
			return fmt.Errorf("table %s: UpdateNumeric cannot update string column %q", t.Name, name)
		case typ != s.typ:
			return fmt.Errorf("table %s: update of %q has the wrong type", t.Name, name)
		}
	}
	rid, ok, err := t.lookupPK(key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("table %s: no row with pk %d", t.Name, key)
	}
	f, old, err := t.pin(rid)
	if err != nil {
		return err
	}
	b := t.Tuple()
	b.buf = append(b.buf, old...)
	tuple := b.buf
	f.Unpin(false)
	for _, s := range sets {
		binary.BigEndian.PutUint64(tuple[t.Schema.offset(tuple, s.Col):], s.bits)
	}
	if err := t.heap.UpdateInPlace(rid, tuple); err != nil {
		return err
	}
	t.engine.meter.RowsWritten++
	t.engine.wal.AppendRecord(t.id, walUpdate, tuple)
	return nil
}

// Rows reports the stored tuple count.
func (t *Table) Rows() int { return t.heap.Rows }
