package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"

	"zcache/internal/zkvproto"
)

// Inputs of the serving workloads. Everything the server receives — keys,
// values and the op stream — is generated here from the seed; the store
// and server only ever see the resulting bytes.

const (
	keyBytes  = 16
	valBytes  = 128
	zipfTheta = 0.99 // YCSB's default skew
)

// mix64 is the splitmix64 finalizer: a bijection on uint64, so distinct
// ranks always give distinct keys.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keySpace holds the key and value bytes for ranks [0, n) of one seed.
// Rank 0 is the hottest key. A key's value is a pure function of the key,
// so every GET hit can be checked without shared state.
type keySpace struct {
	keys [][]byte
	vals [][]byte
}

func newKeySpace(seed uint64, n int) *keySpace {
	ks := &keySpace{keys: make([][]byte, n), vals: make([][]byte, n)}
	kbuf := make([]byte, n*keyBytes)
	vbuf := make([]byte, n*valBytes)
	salt := mix64(seed ^ 0x6b657973)
	for r := 0; r < n; r++ {
		k := kbuf[r*keyBytes : (r+1)*keyBytes : (r+1)*keyBytes]
		copy(k, "perfkey:")
		binary.BigEndian.PutUint64(k[8:], mix64(uint64(r)^salt))
		ks.keys[r] = k
		v := vbuf[r*valBytes : (r+1)*valBytes : (r+1)*valBytes]
		x := mix64(binary.BigEndian.Uint64(k[8:]) ^ 0x76616c73)
		for i := range v {
			x = x*6364136223846793005 + 1442695040888963407
			v[i] = byte(x >> 56)
		}
		ks.vals[r] = v
	}
	return ks
}

// verifyHit reports whether val is the value key rank r must hold.
func (ks *keySpace) verifyHit(r uint32, val []byte) bool {
	return bytes.Equal(ks.vals[r], val)
}

// zipf draws ranks in [0, n) with P(r) ∝ 1/(r+1)^theta, by the closed-form
// inverse of Gray et al. ("Quickly generating billion-record synthetic
// databases", SIGMOD 1994) that YCSB uses; theta may be below 1, which
// math/rand's Zipf does not allow.
type zipf struct {
	n                   float64
	theta, alpha, zetan float64
	eta, half           float64
}

func newZipf(n int, theta float64) *zipf {
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta)}
	var zeta2 float64
	for i := 1; i <= n; i++ {
		t := 1 / math.Pow(float64(i), theta)
		z.zetan += t
		if i <= 2 {
			zeta2 += t
		}
	}
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta2/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipf) draw(rng *rand.Rand) uint32 {
	u := rng.Float64()
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < z.half:
		return 1
	}
	r := uint32(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if float64(r) >= z.n {
		r = uint32(z.n) - 1
	}
	return r
}

// op is one generated request: an opcode and a key rank.
type op struct {
	code byte
	rank uint32
}

// mix is a workload's op mix; the DEL share is what GET and SET leave.
type mix struct {
	get, set float64
}

// opStream generates n ops for connection conn of a workload: Zipf ranks
// over keys, opcodes drawn from m. The same (seed, conn) always yields the
// same stream.
func opStream(seed uint64, conn int, keys int, m mix, n int) []op {
	rng := rand.New(rand.NewPCG(mix64(seed), mix64(uint64(conn)+0x636f6e6e)))
	z := newZipf(keys, zipfTheta)
	ops := make([]op, n)
	for i := range ops {
		o := op{rank: z.draw(rng)}
		switch u := rng.Float64(); {
		case u < m.get:
			o.code = zkvproto.OpGet
		case u < m.get+m.set:
			o.code = zkvproto.OpSet
		default:
			o.code = zkvproto.OpDel
		}
		ops[i] = o
	}
	return ops
}

// mixOf counts the opcodes of a stream.
func mixOf(ops []op) (gets, sets, dels int) {
	for _, o := range ops {
		switch o.code {
		case zkvproto.OpGet:
			gets++
		case zkvproto.OpSet:
			sets++
		default:
			dels++
		}
	}
	return
}
