package zkv

import (
	"encoding/binary"
	"testing"
)

// benchStore builds a store prefilled to roughly half capacity so Get hits
// and Set exercises both overwrite and install paths.
func benchStore(b *testing.B) (*Store, int) {
	b.Helper()
	s, err := Open(Config{Shards: 4, Ways: 4, Rows: 1024, Levels: 2, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	n := s.Capacity() / 2
	var key [8]byte
	val := make([]byte, 64)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(key[:], uint64(i))
		if err := s.Set(key[:], val); err != nil {
			b.Fatal(err)
		}
	}
	return s, n
}

func BenchmarkZKVGet(b *testing.B) {
	s, n := benchStore(b)
	var key [8]byte
	dst := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(key[:], uint64(i%n))
		dst, _ = s.Get(key[:], dst[:0])
	}
	_ = dst
}

func BenchmarkZKVSet(b *testing.B) {
	s, n := benchStore(b)
	var key [8]byte
	val := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Cycle over 2x the prefill so installs, overwrites, and
		// evictions all stay on the hot path.
		binary.BigEndian.PutUint64(key[:], uint64(i%(2*n)))
		if err := s.Set(key[:], val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZKVGetParallel(b *testing.B) {
	s, n := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var key [8]byte
		dst := make([]byte, 0, 64)
		i := 0
		for pb.Next() {
			binary.BigEndian.PutUint64(key[:], uint64(i%n))
			dst, _ = s.Get(key[:], dst[:0])
			i++
		}
	})
}

// BenchmarkServerPipelined16 is rung 3 of the serving ladder run
// in-process: one op is a 16-deep pipelined GET burst from a client
// through a Server over loopback, replies read.
func BenchmarkServerPipelined16(b *testing.B) {
	srv, addr, errc := startServer(b, ServerConfig{})
	defer shutdownServer(b, srv, errc)
	g := newGetBurst(b, addr)
	defer g.cl.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.run(); err != nil {
			b.Fatal(err)
		}
	}
}
