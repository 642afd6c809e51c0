package rubisdb

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Row is a decoded tuple for tests: element i is an int64, float64 or
// string matching Schema[i].Type. The engine itself never boxes
// columns; tests build rows through the Tuple builder and read them
// back through decodeRow, the reference decoder.
type Row []any

// fillTuple appends row's fields to b by their Go types, so a value of
// the wrong type reaches the builder's own type check.
func fillTuple(b *Tuple, row Row) *Tuple {
	for _, v := range row {
		switch v := v.(type) {
		case int64:
			b.Int64(v)
		case float64:
			b.Float64(v)
		case string:
			b.String(v)
		default:
			panic(fmt.Sprintf("fillTuple: unsupported %T", v))
		}
	}
	return b
}

// encodeRow encodes row against schema through the builder of a
// stand-alone table.
func encodeRow(schema Schema, row Row) ([]byte, error) {
	t := &Table{Name: "codec", Schema: schema}
	return t.encoded(fillTuple(t.Tuple(), row))
}

// insertRow inserts row into t through t's builder.
func insertRow(t *Table, row Row) (RID, error) {
	return t.Insert(fillTuple(t.Tuple(), row))
}

// bulkInsertRows bulk-loads rows into t through t's builder.
func bulkInsertRows(t *Table, rows []Row) error {
	return t.BulkInsert(func(add func(*Tuple)) {
		for _, row := range rows {
			add(fillTuple(t.Tuple(), row))
		}
	})
}

// decodeRow parses a tuple encoded against schema, rejecting truncated
// tuples and trailing bytes.
func decodeRow(schema Schema, data []byte) (Row, error) {
	row := make(Row, 0, len(schema))
	off := 0
	for _, col := range schema {
		switch col.Type {
		case TInt64, TFloat64:
			if off+8 > len(data) {
				return nil, fmt.Errorf("truncated tuple at column %q", col.Name)
			}
			bits := binary.BigEndian.Uint64(data[off:])
			off += 8
			if col.Type == TInt64 {
				row = append(row, int64(bits))
			} else {
				row = append(row, math.Float64frombits(bits))
			}
		case TString:
			if off+2 > len(data) {
				return nil, fmt.Errorf("truncated tuple at column %q", col.Name)
			}
			n := int(binary.BigEndian.Uint16(data[off:]))
			off += 2
			if off+n > len(data) {
				return nil, fmt.Errorf("truncated string at column %q", col.Name)
			}
			row = append(row, string(data[off:off+n]))
			off += n
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("%d trailing bytes after tuple", len(data)-off)
	}
	return row, nil
}

// fetchCopy returns a copy of the heap tuple at rid, pinning its page
// once as the row cursor does.
func fetchCopy(h *Heap, rid RID) ([]byte, error) {
	f, cell, err := h.pin(rid)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), cell...)
	f.Unpin(false)
	return out, nil
}
