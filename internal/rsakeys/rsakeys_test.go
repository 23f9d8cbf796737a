package rsakeys

import (
	"crypto/sha256"
	"crypto/x509"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/victim/base64"
)

func TestGenerateAndMarshalParsesWithStdlib(t *testing.T) {
	k, err := Generate(rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	der := k.MarshalPKCS1()
	parsed, err := x509.ParsePKCS1PrivateKey(der)
	if err != nil {
		t.Fatalf("stdlib cannot parse our DER: %v", err)
	}
	if parsed.N.Cmp(k.N) != 0 || parsed.D.Cmp(k.D) != 0 {
		t.Fatal("parsed key differs")
	}
	if err := parsed.Validate(); err != nil {
		t.Fatalf("generated key invalid: %v", err)
	}
	if k.N.BitLen() != Bits {
		t.Fatalf("modulus bits = %d", k.N.BitLen())
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	a, err := Generate(rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.N.Cmp(b.N) != 0 {
		t.Fatal("same seed produced different keys")
	}
	c, err := Generate(rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	if a.N.Cmp(c.N) == 0 {
		t.Fatal("different seeds produced the same key")
	}
}

func TestPEMBodyShape(t *testing.T) {
	k, err := Generate(rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	body := k.PEMBody()
	// The paper's 1024-bit keys average ~872 base64 characters; ours are
	// PKCS#1 too, so the body must be in the same range.
	if len(body) < 700 || len(body) > 1000 {
		t.Fatalf("PEM body length = %d, want ~800-900", len(body))
	}
	for i, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if len(line) > 64 {
			t.Fatalf("line %d longer than 64 chars", i)
		}
	}
	// Round trip through the victim decoder recovers the DER.
	got, _, err := base64.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	der := k.MarshalPKCS1()
	if len(got) != len(der) {
		t.Fatalf("decoded %d bytes, want %d", len(got), len(der))
	}
	for i := range got {
		if got[i] != der[i] {
			t.Fatalf("decode mismatch at %d", i)
		}
	}
	pem := k.PEM()
	if !strings.HasPrefix(pem, PEMHeader) || !strings.Contains(pem, PEMFooter) {
		t.Fatal("PEM framing missing")
	}
}

// pinnedModuli are SHA-256 digests of Generate(rng.New(seed)).N, recorded
// before genPrime gained its small-factor pre-filter. The filter only
// skips candidates ProbablyPrime would reject, so they must not move.
var pinnedModuli = map[uint64]string{
	1:  "eb124c0a532885af3be783b981208aa03661a9a24b231cd81c00cf56626b56b2",
	2:  "dafd0ef9ffe52dc5cd2318ea2d941ea2a4810367e2e83355b0cc89c2379512e5",
	3:  "250bb273658f8d7d953dee20505cd4f5efa4708f9f6e966a6b0f176865ebdc00",
	4:  "d8e047e2371561f40c75b67ba76b0665740e24aeced3e5e7599f818e37472eb1",
	5:  "fc544d2c5a1e40340823dfecbc169f4a458fd183f0324f368e3cbc1db7056910",
	6:  "68d2a67ba1ffdfd212207026b8d2c976b8b6234047e4a15d37f9ebb7313bd931",
	7:  "94e13a44a39f8b43450cd5e3d772873d6287f17d971a518cf82686d911a48ef1",
	8:  "86366fb11499d5c1f5016eeb0efcf1645a95e20c8b85c45281bd7c2ca56934e5",
	9:  "51159f6522adaaf4c4d3596ac2161eb4480326f1d24c04b9a7afb8514de716d7",
	10: "9329028765a01c6303b72ebf8bb81c53a36fe76fcd335f065c4f0ff0b77f13d9",
	11: "ae49db4c0edbe72c90771ed6d47baea75817d0d61afcabdfb53566199b65daa1",
	12: "6f387320cb81d96737dacd4056099aa95dd6a555951ba3a31ae0db13da950d4f",
	13: "96f079c5cd10359f4ed368c11268b23a626fd0bc5b89810c61b12411ae680453",
	14: "f54ccdacdf543d432c847f1f296c7d27ca519053f51ca5553aab435c326af06a",
	15: "2be070cf3e9b4923b8a13561cfc32990e0c34ea5a34c43b3f0bafdf3ec98fa49",
	16: "7d08dbc007f862575602d0aa9ba5c43fc4ae78655f1645e79d4e8e97a0c0a767",
	17: "b0114c2964d490910df0bf90528b61fbe786eab93ab2d45d1344bd498551a4bf",
	18: "ebfdceea23ed3cc98429979e7807651526e0408f10d73c68a7d54abf4e9fecf2",
	19: "532cd4c92ada68e309d4fcdb3689b6a3ee6150004a2cb81f6bfb7f8b9b97cc53",
	20: "f5da585a30c5fb1b7e00f1d440c9f0917ec3192e1caa22bd2ced346eb597e875",
}

func TestGenerateModuliPinned(t *testing.T) {
	for seed, want := range pinnedModuli {
		k, err := Generate(rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(k.N.Bytes())); got != want {
			t.Errorf("seed %d: modulus digest %s, want %s", seed, got, want)
		}
	}
}

// TestHasSmallFactorMatchesBigMod checks the word-wise filter against
// math/big on random odd numbers of several widths, half of them given a
// known small factor (including the largest odd prime below 2^14).
func TestHasSmallFactorMatchesBigMod(t *testing.T) {
	var primes []int64
	for _, g := range smallPrimes {
		for _, q := range g.primes {
			primes = append(primes, int64(q))
		}
	}
	if n := len(primes); primes[0] != 3 || primes[n-1] != 16381 || n != 1899 {
		t.Fatalf("sieve: %d primes from %d to %d", n, primes[0], primes[n-1])
	}
	r := rng.New(5)
	for i := 0; i < 400; i++ {
		bs := make([]byte, 3+i%70)
		r.Bytes(bs)
		bs[0] |= 0x80
		bs[len(bs)-1] |= 1
		n := new(big.Int).SetBytes(bs)
		if i%2 == 1 {
			q := big.NewInt(primes[r.Intn(len(primes))])
			if i%10 == 1 {
				q = big.NewInt(16381)
			}
			n.Mul(n, q)
			bs = n.Bytes()
		}
		want := false
		for _, q := range primes {
			if new(big.Int).Mod(n, big.NewInt(q)).Sign() == 0 {
				want = true
				break
			}
		}
		if got := hasSmallFactor(bs); got != want {
			t.Fatalf("%x: hasSmallFactor = %v, want %v", bs, got, want)
		}
	}
}
