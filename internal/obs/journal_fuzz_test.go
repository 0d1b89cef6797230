package obs

import (
	"bytes"
	"reflect"
	"testing"
)

// journalBytes is the journal a recorder holding recs flushes through
// Recorder.WriteTo — the one writer of the format.
func journalBytes(t testing.TB, recs []Record) []byte {
	t.Helper()
	rec := NewRecorder(0, 0)
	for _, r := range recs {
		rec.Append(r)
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadJournal holds the .pjl decoder — what cmd/explain runs on a file
// somebody hands it — to its trust-boundary contract:
//
// GIVEN arbitrary bytes WHEN ReadJournal decodes them, and decodeRecord
// decodes them as one record payload (the layer a frame's CRC otherwise
// keeps the fuzzer out of) THEN neither panics; what decodes re-encodes to
// bytes that decode to the same record, so nothing a journal can say is lost
// or invented by a round trip; and no length field makes the decoder hold
// more records than the input has bytes for.
//
// The seeds are the journals this package's tests already write: the four
// record shapes of sampleRecords, an empty recorder's header-only file, and
// the truncated, bit-flipped and re-badged copies TestJournalTruncation and
// TestJournalCRCCorruption reject.
func FuzzReadJournal(f *testing.F) {
	whole := journalBytes(f, sampleRecords())
	f.Add(whole)
	f.Add(journalBytes(f, nil))
	f.Add(whole[:len(whole)-3])
	f.Add(whole[:2])
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(append([]byte("X"), whole[1:]...))
	for _, r := range sampleRecords() {
		f.Add(encodeRecord(nil, r))
	}

	sameAfterRoundTrip := func(t *testing.T, r Record) {
		t.Helper()
		again, err := decodeRecord(encodeRecord(nil, r))
		if err != nil {
			t.Fatalf("a decoded record does not re-decode: %v\n%+v", err, r)
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("record changed across encode/decode:\n got %+v\nwant %+v", again, r)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if j, err := ReadJournal(bytes.NewReader(data)); err == nil {
			if len(j.Records) > len(data) {
				t.Fatalf("%d records decoded from %d bytes", len(j.Records), len(data))
			}
			for _, r := range j.Records {
				sameAfterRoundTrip(t, r)
			}
		}
		if r, err := decodeRecord(data); err == nil {
			if len(r.Candidates) > len(data) {
				t.Fatalf("%d candidates decoded from %d bytes", len(r.Candidates), len(data))
			}
			sameAfterRoundTrip(t, r)
		}
	})
}
