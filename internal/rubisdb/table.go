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

// Row is one tuple; element i must match Schema[i].Type (int64, float64,
// or string).
type Row []any

// EncodeRow serializes row against schema. Int64 and Float64 are 8 bytes
// big-endian; strings are length-prefixed (u16).
func EncodeRow(schema Schema, row Row) ([]byte, error) {
	return AppendRow(schema, nil, row)
}

// AppendRow serializes row against schema, appending to dst and
// returning the extended buffer. Every storage-side consumer of a tuple
// copies it (pages, the WAL framing buffer), so hot paths pass a reused
// scratch buffer and encode without allocating.
func AppendRow(schema Schema, dst []byte, row Row) ([]byte, error) {
	if len(row) != len(schema) {
		return nil, fmt.Errorf("rubisdb: row arity %d != schema arity %d", len(row), len(schema))
	}
	out := dst
	for i, col := range schema {
		switch col.Type {
		case TInt64:
			v, ok := row[i].(int64)
			if !ok {
				return nil, fmt.Errorf("rubisdb: column %q wants int64, got %T", col.Name, row[i])
			}
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], uint64(v))
			out = append(out, b[:]...)
		case TFloat64:
			v, ok := row[i].(float64)
			if !ok {
				return nil, fmt.Errorf("rubisdb: column %q wants float64, got %T", col.Name, row[i])
			}
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
			out = append(out, b[:]...)
		case TString:
			v, ok := row[i].(string)
			if !ok {
				return nil, fmt.Errorf("rubisdb: column %q wants string, got %T", col.Name, row[i])
			}
			if len(v) > 0xFFFF {
				return nil, fmt.Errorf("rubisdb: column %q string too long (%d)", col.Name, len(v))
			}
			var b [2]byte
			binary.BigEndian.PutUint16(b[:], uint16(len(v)))
			out = append(out, b[:]...)
			out = append(out, v...)
		default:
			return nil, fmt.Errorf("rubisdb: column %q has unknown type %d", col.Name, col.Type)
		}
	}
	return out, nil
}

// DecodeRow parses a tuple serialized by EncodeRow.
func DecodeRow(schema Schema, data []byte) (Row, error) {
	row := make(Row, 0, len(schema))
	off := 0
	for _, col := range schema {
		switch col.Type {
		case TInt64:
			if off+8 > len(data) {
				return nil, fmt.Errorf("rubisdb: truncated tuple at column %q", col.Name)
			}
			row = append(row, int64(binary.BigEndian.Uint64(data[off:])))
			off += 8
		case TFloat64:
			if off+8 > len(data) {
				return nil, fmt.Errorf("rubisdb: truncated tuple at column %q", col.Name)
			}
			row = append(row, math.Float64frombits(binary.BigEndian.Uint64(data[off:])))
			off += 8
		case TString:
			if off+2 > len(data) {
				return nil, fmt.Errorf("rubisdb: truncated tuple at column %q", col.Name)
			}
			n := int(binary.BigEndian.Uint16(data[off:]))
			off += 2
			if off+n > len(data) {
				return nil, fmt.Errorf("rubisdb: truncated string at column %q", col.Name)
			}
			row = append(row, string(data[off:off+n]))
			off += n
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("rubisdb: %d trailing bytes after tuple", len(data)-off)
	}
	return row, nil
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
	// rowScratch is the reused tuple-encoding buffer for this table's
	// write paths; safe because pages and the WAL copy the bytes.
	rowScratch []byte
	// rids is the reused RID scratch of Scan.
	rids []RID
}

// walInsert and walUpdate are WAL op codes.
const (
	walInsert = 1
	walUpdate = 2
)

// encode serializes row into the table's reused scratch buffer. The
// returned slice is valid until the next encode on this table.
func (t *Table) encode(row Row) ([]byte, error) {
	buf, err := AppendRow(t.Schema, t.rowScratch[:0], row)
	if err != nil {
		return nil, err
	}
	t.rowScratch = buf
	return buf, nil
}

// Insert validates and stores row, maintaining all indexes, and returns
// its RID.
func (t *Table) Insert(row Row) (RID, error) {
	tuple, err := t.encode(row)
	if err != nil {
		return RID{}, fmt.Errorf("table %s: %w", t.Name, err)
	}
	key, ok := row[t.pkCol].(int64)
	if !ok {
		return RID{}, fmt.Errorf("table %s: primary key must be int64", t.Name)
	}
	if existing, err := t.pk.Search(key); err != nil {
		return RID{}, err
	} else if len(existing) > 0 {
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
		sk, ok := row[col].(int64)
		if !ok {
			return RID{}, fmt.Errorf("table %s: secondary key column %d must be int64", t.Name, col)
		}
		if err := t.secs[i].Insert(sk, rid.Encode()); err != nil {
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
// instead of one root-to-leaf descent per row. Rows must be sorted by
// strictly ascending primary key (the dataset generators emit them that
// way); secondary entries are sorted here before loading. WAL traffic
// is batched — one framed record per heap page of rows rather than one
// per row (the LOAD DATA shape) — carrying the same row images with far
// less framing overhead.
func (t *Table) BulkInsert(rows []Row) error {
	if t.heap.Rows != 0 || t.pk.Len() != 0 {
		return fmt.Errorf("table %s: BulkInsert needs an empty table", t.Name)
	}
	if len(rows) == 0 {
		return nil
	}
	pkEntries := make([]Entry, 0, len(rows))
	secEntries := make([][]Entry, len(t.secCols))
	for i := range secEntries {
		secEntries[i] = make([]Entry, 0, len(rows))
	}
	var lastKey int64
	// One WAL record accumulates per heap page; rows land on ascending
	// pages, so a page switch means the previous batch is complete.
	var batchPage uint32
	var batchRows, batchBytes int
	for ri, row := range rows {
		tuple, err := t.encode(row)
		if err != nil {
			return fmt.Errorf("table %s: %w", t.Name, err)
		}
		key, ok := row[t.pkCol].(int64)
		if !ok {
			return fmt.Errorf("table %s: primary key must be int64", t.Name)
		}
		if ri > 0 && key <= lastKey {
			return fmt.Errorf("table %s: BulkInsert rows must be sorted by unique primary key (%d after %d)", t.Name, key, lastKey)
		}
		lastKey = key
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
		pkEntries = append(pkEntries, Entry{Key: key, Value: enc})
		for si, col := range t.secCols {
			sk, ok := row[col].(int64)
			if !ok {
				return fmt.Errorf("table %s: secondary key column %d must be int64", t.Name, col)
			}
			secEntries[si] = append(secEntries[si], Entry{Key: sk, Value: enc})
		}
		t.engine.meter.RowsWritten++
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
// straight from the pinned heap page, with no copy and no boxing into a
// Row; typed accessors such as Schema.Int64At read single columns from
// them. The contract:
//
//   - The tuple bytes alias the buffer-pool page and are valid only
//     inside fn. Copy what must outlive the call.
//   - fn must not call back into the same engine. Each tuple's page stays
//     pinned while fn runs, and a nested lookup would both see that pin
//     and interleave its page touches with the cursor's.
//   - The cursor makes the same buffer-pool Get calls, in the same order,
//     and the same meter increments (RowsRead, BytesOut per fetched
//     tuple) as decoding every row would. Page hits and misses feed the
//     DB tier's cost receipts, so the decoding wrappers (GetByPK,
//     RangeBy, LookupBy) are built on the cursor rather than beside it.

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

// GetByPK returns the row with the given primary key, or nil when
// absent. It decodes the tuple Get hands over.
func (t *Table) GetByPK(key int64) (Row, error) {
	var row Row
	var derr error
	if _, err := t.Get(key, func(tuple []byte) {
		row, derr = DecodeRow(t.Schema, tuple)
	}); err != nil {
		return nil, err
	}
	return row, derr
}

// LookupBy returns up to limit rows whose indexed column equals key
// (limit <= 0 means unlimited). The column must have a secondary index.
func (t *Table) LookupBy(column string, key int64, limit int) ([]Row, error) {
	return t.RangeBy(column, key, key, limit)
}

// RangeBy returns up to limit rows with lo <= column <= hi in index
// order, decoding the tuples Scan hands over. The column must be the
// primary key or carry a secondary index.
func (t *Table) RangeBy(column string, lo, hi int64, limit int) ([]Row, error) {
	ci, err := t.Schema.ColIndex(column)
	if err != nil {
		return nil, err
	}
	var rows []Row
	var derr error
	err = t.Scan(ci, lo, hi, limit, func(tuple []byte) bool {
		var row Row
		row, derr = DecodeRow(t.Schema, tuple)
		rows = append(rows, row)
		return derr == nil
	})
	if err == nil {
		err = derr
	}
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// CountBy counts index entries with lo <= column <= hi without fetching
// rows (an index-only scan).
func (t *Table) CountBy(column string, lo, hi int64) (int, error) {
	ci, err := t.Schema.ColIndex(column)
	if err != nil {
		return 0, err
	}
	return t.Count(ci, lo, hi)
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
	tuple := append(t.rowScratch[:0], old...)
	f.Unpin(false)
	t.rowScratch = tuple
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
