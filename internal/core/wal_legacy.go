package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Read-only support for the WAL records written before ISSUE 18: one
// standalone gob stream per record. Nothing writes this format any more.
// Recovery translates such a record into the current encoding and replays
// it like any other; the replication stream never accepts one. A legacy
// record leaves the disk at the first snapshot rotation after an upgrade.
// DESIGN.md §13 ledgers this file for deletion next cycle.

// legacyRecord mirrors the gob struct the old encoder wrote, field for
// field (gob matches fields by name).
type legacyRecord struct {
	Remove   bool
	ObjectID string
	Update   *Update
}

// isLegacyWALRecord reports whether b starts the way a gob stream does — a
// message length as a gob uint, 0x00–0x7F or 0xF8–0xFF — which no current
// kind byte does.
func isLegacyWALRecord(b []byte) bool {
	return len(b) > 0 && (b[0] < 0x80 || b[0] >= 0xF8)
}

// replay is apply for recovery, the one place a gob record is still
// accepted: it is translated to the current encoding first. Deleting this
// file turns the call in loadRepo into apply.
func (r *Repository) replay(b []byte) error {
	if isLegacyWALRecord(b) {
		var err error
		if b, err = upgradeLegacyWALRecord(b); err != nil {
			return err
		}
	}
	return r.apply(b)
}

// upgradeLegacyWALRecord re-encodes a gob record in the current format.
func upgradeLegacyWALRecord(b []byte) ([]byte, error) {
	var rec legacyRecord
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&rec); err != nil {
		return nil, fmt.Errorf("%w: legacy gob record: %v", ErrBadWALRecord, err)
	}
	if rec.Remove {
		return encodeWALRecord(nil, rec.ObjectID), nil
	}
	if rec.Update == nil {
		return nil, fmt.Errorf("%w: legacy gob record carries neither update nor remove", ErrBadWALRecord)
	}
	return encodeWALRecord(rec.Update, ""), nil
}
