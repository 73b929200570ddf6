package serve

import (
	"runtime"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/secchan"
)

// bulkConfig is the 64 KiB serving shape: a fork-pool fleet at P=4 whose
// requests and model are 64 KiB, so every request and every result crosses
// the channel as one 68 KiB record.
func bulkConfig(tenants, sessions int) Config {
	return Config{
		Tenants: tenants, Sessions: sessions, Seed: 1, VCPUs: 4, ForkPool: true,
		InputBytes: 64 << 10, ModelBytes: 64 << 10,
	}
}

// bulkRecord is the size of one padded 64 KiB record: the payload and its
// 4-byte length prefix rounded up to the padding block.
const bulkRecord = (64<<10 + 4 + secchan.DefaultPadBlock - 1) / secchan.DefaultPadBlock * secchan.DefaultPadBlock

// TestBulkSessionAllocBudget is the host allocation budget of a 64 KiB
// session: over Run, a 16-slot fleet serving 64 sessions allocates at most
// twelve 68 KiB records' worth of bytes per session. Each session's
// ciphertexts are its own (sealed, relayed and opened once per direction),
// but the host scratch a request needs is lent and given back, and a slot
// refills one request buffer for all its tenants.
func TestBulkSessionAllocBudget(t *testing.T) {
	const sessions = 64
	s, err := New(bulkConfig(16, sessions))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := s.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != sessions {
		t.Fatalf("completed %d of %d sessions (%d failed)", rep.Completed, sessions, rep.Failed)
	}
	per := (after.TotalAlloc - before.TotalAlloc) / sessions
	if budget := uint64(12 * bulkRecord); per > budget {
		t.Fatalf("a 64 KiB session allocated %d B, budget %d B (twelve %d-byte records)", per, budget, bulkRecord)
	}
	t.Logf("%d B allocated per 64 KiB session (%.2f records)", per, float64(per)/bulkRecord)
}

// BenchmarkServeSession64K serves one 64 KiB session per op: b.N sessions
// over up to 16 fork-pool slots at P=4. Boot and the template are outside
// the timer.
func BenchmarkServeSession64K(b *testing.B) {
	s, err := New(bulkConfig(min(16, b.N), b.N))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	rep, err := s.Run()
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if rep.Completed != b.N {
		b.Fatalf("completed %d of %d sessions (%d failed)", rep.Completed, b.N, rep.Failed)
	}
}
