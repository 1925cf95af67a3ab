package potserve

import "testing"

// The pipe benchmarks measure the full request path — client codec, server
// loop, KV store, persistent heap — over an in-memory connection, so
// per-request CPU and allocation behavior is visible without network noise.

func BenchmarkPingPipe(b *testing.B) {
	_, kv := newBenchStore(b)
	c := newPipeClient(b, kv)
	ping := Request{Op: OpPing}
	if _, err := c.Do(ping); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Do(ping); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetPipe(b *testing.B) {
	_, kv := newBenchStore(b)
	c := newPipeClient(b, kv)
	if _, err := c.Put(1, 42); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Do(Request{Op: OpGet, Key: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutPipe(b *testing.B) {
	_, kv := newBenchStore(b)
	c := newPipeClient(b, kv)
	if _, err := c.Put(1, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Put(1, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
