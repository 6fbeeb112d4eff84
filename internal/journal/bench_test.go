package journal

import (
	"context"
	"path/filepath"
	"testing"
)

type benchBody struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	Hash  string `json:"hash"`
}

// BenchmarkJournalAppend measures one fsync'd record append — the
// per-PTP durability cost the runner pays.
func BenchmarkJournalAppend(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.wal")
	j, _, err := Open(context.Background(), path)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	body := benchBody{Index: 1, Name: "IMM", Hash: "0123456789abcdef0123456789abcdef"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.Append("outcome", body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalReplay measures scanning a 1000-record journal — the
// resume-time recovery cost.
func BenchmarkJournalReplay(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.wal")
	j, _, err := Open(context.Background(), path)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := j.Append("outcome", benchBody{Index: i, Name: "IMM"}); err != nil {
			b.Fatal(err)
		}
	}
	j.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp, err := Scan(path)
		if err != nil || len(rp.Records) != 1000 {
			b.Fatalf("replay: %v, %d records", err, len(rp.Records))
		}
	}
}
