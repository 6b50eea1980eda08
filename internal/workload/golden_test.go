package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// goldenRefStrings pins the generator's output: SHA-256 over the first
// 2000 reference strings of each preset, for 2 seeds x 2 client ids. The
// values were recorded at commit d0565ce, before NextTxn stopped
// allocating its scratch per call; they prove the RNG draw order — and
// with it every sim figure and every bench reference string — is unchanged.
var goldenRefStrings = []struct {
	name string
	spec Spec
	want string
}{
	{"hotcold-low", HotColdSpec(LowLocality, 0.2), "acbf258f43244f774f8e702687a2c2fecc16d87fe38aa4345b016f39dcedbd86"},
	{"hotcold-high", HotColdSpec(HighLocality, 0.2), "2c4ac0ed3397607c05c730c7e31174c185468ab73cbb593673dfc0d6c5c1a0da"},
	{"uniform-low", UniformSpec(LowLocality, 0.05), "5c5ab26e8502d448922b893bf1bc5fd8de196e95701e4195833ee467f72cfe7c"},
	{"uniform-high", UniformSpec(HighLocality, 0.2), "73343893d872e594f8ff381cdd5e749833eb828046f8a680a9050e9628f5a878"},
	{"hicon-low", HiConSpec(LowLocality, 0.2), "ef4abb8d0d388905e81c9816609fb21e8627935806e926852ea707d06696e07c"},
	{"hicon-high", HiConSpec(HighLocality, 0.2), "d60e7d4d8e6aa6ae1683a1174a600638e160c575976014d6e71e148f4aeba257"},
	{"private-low", PrivateSpec(LowLocality, 0.2), "5e609ce1b749766b0c760561a7c0a4906de4e2a0bc5dedd737ad0b9bde3b8fcb"},
	{"private-high", PrivateSpec(HighLocality, 0.2), "4a1c4d3278408c6a52b29d7aa951f9c32c505fe2571362690c4b0031172bd42e"},
	{"interleaved", InterleavedPrivateSpec(0.3), "9df9f0d2ff3ffaa9f5ba553cafd2ec45b2291629c4fd256aa061edeb569c3f41"},
	{"hotcold-low-clustered", clustered(HotColdSpec(LowLocality, 0.1)), "fc681246587ac2e0be0e156ad4ae2243e811576e15470ecf1b2e4bc79881606d"},
}

func clustered(s Spec) Spec {
	s.Clustered = true
	return s
}

func TestGoldenReferenceStrings(t *testing.T) {
	for _, tc := range goldenRefStrings {
		h := sha256.New()
		var rec [7]byte
		for _, seed := range []int64{1, 42} {
			for _, client := range []int{1, tc.spec.NumClients} {
				g := gen(t, tc.spec, client, seed)
				for i := 0; i < 2000; i++ {
					refs := g.NextTxn()
					binary.LittleEndian.PutUint32(rec[:4], uint32(len(refs)))
					h.Write(rec[:4])
					for _, r := range refs {
						binary.LittleEndian.PutUint32(rec[:4], uint32(r.Obj.Page))
						binary.LittleEndian.PutUint16(rec[4:6], r.Obj.Slot)
						rec[6] = 0
						if r.Write {
							rec[6] = 1
						}
						h.Write(rec[:])
					}
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: reference strings changed: sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}
