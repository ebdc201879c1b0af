package compress

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"testing"

	"mbplib/internal/faults"
)

// goldenInputs are the fixed seeded streams whose encodings the golden
// tests pin. Between them they give every block kind: the incompressible
// stream is stored, the short repeated one is plain LZ (its token stream
// is too small for a Huffman table to pay), the skewed one is
// Huffman-coded, and the mixed ones change kind from chunk to chunk.
func goldenInputs() []struct {
	name string
	data []byte
} {
	rng := rand.New(rand.NewPCG(33, 1))
	random := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		return b
	}
	// Skewed bytes: a Huffman table pays even on a small chunk.
	skewed := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.ExpFloat64() * 8)
		}
		return b
	}
	plainLZ := bytes.Repeat(random(256), 16)
	mixed := slices.Concat(mlzsTestPayload(12<<10, 5), random(12<<10), bytes.Repeat(random(200), 20), mlzsTestPayload(20<<10, 6))
	small := slices.Concat(skewed(4<<10), random(2<<10), bytes.Repeat(random(128), 16))
	return []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"one-byte", []byte{0x5a}},
		{"incompressible", random(64 << 10)},
		{"plain-lz", plainLZ},
		{"trace", mlzsTestPayload(96<<10, 7)},
		{"skewed", skewed(24 << 10)},
		{"mixed", mixed},
		{"small-mixed", small},
	}
}

// goldenEncodings are the SHA-256 digests of every golden encoding. A
// change to either writer that alters one byte of either container shows
// up here.
var goldenEncodings = map[string]string{
	"mlz/fast/empty":                           "47dd86c0f1ffbae811395921b5f7b274ed7a9312fa7a9cd9d892aa4781cd271c",
	"mlz/best/empty":                           "47dd86c0f1ffbae811395921b5f7b274ed7a9312fa7a9cd9d892aa4781cd271c",
	"mlzs/c512/a0+0/w1/fast/empty":             "292d60ec6a9fac2d651806a2739f56dabd2b2b355bb88f40a5ffb026412e4d4b",
	"mlzs/c512/a0+0/w3/fast/empty":             "292d60ec6a9fac2d651806a2739f56dabd2b2b355bb88f40a5ffb026412e4d4b",
	"mlzs/c512/a16+24/w1/fast/empty":           "becc462934d3cd06bc16c3b746d5be0598bb75526901312a1abc7181052db25c",
	"mlzs/c512/a16+24/w3/fast/empty":           "becc462934d3cd06bc16c3b746d5be0598bb75526901312a1abc7181052db25c",
	"mlzs/c4096/a0+0/w1/fast/empty":            "48c868fecdfdbc57a9f60ed7387aab995f46380382dbf041d07c44dcf4013df6",
	"mlzs/c4096/a0+0/w3/fast/empty":            "48c868fecdfdbc57a9f60ed7387aab995f46380382dbf041d07c44dcf4013df6",
	"mlzs/c4096/a16+24/w1/fast/empty":          "f26a0f35933c1627a6a6a07a0d3aaed03bc1372c19e109e9080a4168b930fd2b",
	"mlzs/c4096/a16+24/w3/fast/empty":          "f26a0f35933c1627a6a6a07a0d3aaed03bc1372c19e109e9080a4168b930fd2b",
	"mlzs/c0/a0+0/w1/fast/empty":               "027c3756d846a3db38e8d56015a8e5923c184dfb28c200ee865aa7b84205ef9c",
	"mlzs/c0/a0+0/w3/fast/empty":               "027c3756d846a3db38e8d56015a8e5923c184dfb28c200ee865aa7b84205ef9c",
	"mlzs/c0/a16+24/w1/fast/empty":             "ef1e4b5d25a937fe4bd7dfb84d403ebc8063048255726c138b69484460a55135",
	"mlzs/c0/a16+24/w3/fast/empty":             "ef1e4b5d25a937fe4bd7dfb84d403ebc8063048255726c138b69484460a55135",
	"mlzs/c4096/a0+0/w3/best/empty":            "48c868fecdfdbc57a9f60ed7387aab995f46380382dbf041d07c44dcf4013df6",
	"mlz/fast/one-byte":                        "263a3d3303d9a1839338bad174a9bc89013564a3b0558a2ff90f2025d2c19957",
	"mlz/best/one-byte":                        "263a3d3303d9a1839338bad174a9bc89013564a3b0558a2ff90f2025d2c19957",
	"mlzs/c512/a0+0/w1/fast/one-byte":          "38505da7677da576837cafa6899495fb27aff3977fa7fafd05a50bfc19acc565",
	"mlzs/c512/a0+0/w3/fast/one-byte":          "38505da7677da576837cafa6899495fb27aff3977fa7fafd05a50bfc19acc565",
	"mlzs/c512/a16+24/w1/fast/one-byte":        "4f116124ca680cabd87d8428f37919bcb5885818b02b9fd25a304905c1cca469",
	"mlzs/c512/a16+24/w3/fast/one-byte":        "4f116124ca680cabd87d8428f37919bcb5885818b02b9fd25a304905c1cca469",
	"mlzs/c4096/a0+0/w1/fast/one-byte":         "b294daf937605c1f961bc159aaaac0c1b713b56cf08c921c5962fd66d6d8d79e",
	"mlzs/c4096/a0+0/w3/fast/one-byte":         "b294daf937605c1f961bc159aaaac0c1b713b56cf08c921c5962fd66d6d8d79e",
	"mlzs/c4096/a16+24/w1/fast/one-byte":       "db928eaa07308ff1e62de10843530acbc7466ce6383e053b8a0ec3896a4e7283",
	"mlzs/c4096/a16+24/w3/fast/one-byte":       "db928eaa07308ff1e62de10843530acbc7466ce6383e053b8a0ec3896a4e7283",
	"mlzs/c0/a0+0/w1/fast/one-byte":            "e0fa4a82712893ededa4a41f7b3c452b704f44b453056ed22c8406be27d43e12",
	"mlzs/c0/a0+0/w3/fast/one-byte":            "e0fa4a82712893ededa4a41f7b3c452b704f44b453056ed22c8406be27d43e12",
	"mlzs/c0/a16+24/w1/fast/one-byte":          "d0150575c8a12955e961fa275fbe89f0604d53966e424b0197aa572ff1dd4258",
	"mlzs/c0/a16+24/w3/fast/one-byte":          "d0150575c8a12955e961fa275fbe89f0604d53966e424b0197aa572ff1dd4258",
	"mlzs/c4096/a0+0/w3/best/one-byte":         "b294daf937605c1f961bc159aaaac0c1b713b56cf08c921c5962fd66d6d8d79e",
	"mlz/fast/incompressible":                  "7df87bef82ee1fbdcbe7ee8bde25f8ce89fd81059084de01bd33899c6007bb04",
	"mlz/best/incompressible":                  "7df87bef82ee1fbdcbe7ee8bde25f8ce89fd81059084de01bd33899c6007bb04",
	"mlzs/c512/a0+0/w1/fast/incompressible":    "4ce82e3f5bf88ba6e5de42507741b57ce3e6b35e934930d1e62c98dc3a1024d4",
	"mlzs/c512/a0+0/w3/fast/incompressible":    "4ce82e3f5bf88ba6e5de42507741b57ce3e6b35e934930d1e62c98dc3a1024d4",
	"mlzs/c512/a16+24/w1/fast/incompressible":  "b7a2564691efa45ba29f06619f48183b30d1ed1326bf7727c762c0cd63e1ec5f",
	"mlzs/c512/a16+24/w3/fast/incompressible":  "b7a2564691efa45ba29f06619f48183b30d1ed1326bf7727c762c0cd63e1ec5f",
	"mlzs/c4096/a0+0/w1/fast/incompressible":   "9be1ac87516d7034f8c01ba394800fb0b826561b6b6fa8e59c7846f99e921cee",
	"mlzs/c4096/a0+0/w3/fast/incompressible":   "9be1ac87516d7034f8c01ba394800fb0b826561b6b6fa8e59c7846f99e921cee",
	"mlzs/c4096/a16+24/w1/fast/incompressible": "8a88646c7858f9c7b16648b502e258319f0c72c4f953c3916ebbf63538d0a856",
	"mlzs/c4096/a16+24/w3/fast/incompressible": "8a88646c7858f9c7b16648b502e258319f0c72c4f953c3916ebbf63538d0a856",
	"mlzs/c0/a0+0/w1/fast/incompressible":      "fbd97dcb1cc54187f1ff785a0a33657c828347a373978ad5324600dd5bf95d1e",
	"mlzs/c0/a0+0/w3/fast/incompressible":      "fbd97dcb1cc54187f1ff785a0a33657c828347a373978ad5324600dd5bf95d1e",
	"mlzs/c0/a16+24/w1/fast/incompressible":    "3e1b4213d8167d2355ecb919b02654d87b6a35ef893808055d88d976d9d1f7df",
	"mlzs/c0/a16+24/w3/fast/incompressible":    "3e1b4213d8167d2355ecb919b02654d87b6a35ef893808055d88d976d9d1f7df",
	"mlzs/c4096/a0+0/w3/best/incompressible":   "9be1ac87516d7034f8c01ba394800fb0b826561b6b6fa8e59c7846f99e921cee",
	"mlz/fast/plain-lz":                        "22a53d8cae4a64db737d0972a71281ea6a78a152fec432263db4978f8c6837ca",
	"mlz/best/plain-lz":                        "22a53d8cae4a64db737d0972a71281ea6a78a152fec432263db4978f8c6837ca",
	"mlzs/c512/a0+0/w1/fast/plain-lz":          "2471d0f2187d2c49a15e60bc1e785d48cf62248418ccf96bec536a9bf059efee",
	"mlzs/c512/a0+0/w3/fast/plain-lz":          "2471d0f2187d2c49a15e60bc1e785d48cf62248418ccf96bec536a9bf059efee",
	"mlzs/c512/a16+24/w1/fast/plain-lz":        "f4f499d8a28994c2411faf7c0588996028268d5fc3d9f1fc60bd0bc0d9f0ef87",
	"mlzs/c512/a16+24/w3/fast/plain-lz":        "f4f499d8a28994c2411faf7c0588996028268d5fc3d9f1fc60bd0bc0d9f0ef87",
	"mlzs/c4096/a0+0/w1/fast/plain-lz":         "7b5a131bac169c4e105e101d073279a0e6757c7e581cbc0842c16a6bd66869af",
	"mlzs/c4096/a0+0/w3/fast/plain-lz":         "7b5a131bac169c4e105e101d073279a0e6757c7e581cbc0842c16a6bd66869af",
	"mlzs/c4096/a16+24/w1/fast/plain-lz":       "0123a064e48321e33ec9ab7895b71f7f8058aecfb5ace1deae72dc50d440defa",
	"mlzs/c4096/a16+24/w3/fast/plain-lz":       "0123a064e48321e33ec9ab7895b71f7f8058aecfb5ace1deae72dc50d440defa",
	"mlzs/c0/a0+0/w1/fast/plain-lz":            "4b6c0cf264b7ce3b34ca1ff8441441cac16982f06354d7c08f0cbd66840e0dcf",
	"mlzs/c0/a0+0/w3/fast/plain-lz":            "4b6c0cf264b7ce3b34ca1ff8441441cac16982f06354d7c08f0cbd66840e0dcf",
	"mlzs/c0/a16+24/w1/fast/plain-lz":          "0e454a675170b90bbf300dcdbea5faf98b1c134e6214bb48c027c0d72bf3dc2a",
	"mlzs/c0/a16+24/w3/fast/plain-lz":          "0e454a675170b90bbf300dcdbea5faf98b1c134e6214bb48c027c0d72bf3dc2a",
	"mlzs/c4096/a0+0/w3/best/plain-lz":         "7b5a131bac169c4e105e101d073279a0e6757c7e581cbc0842c16a6bd66869af",
	"mlz/fast/trace":                           "1311615d8551cefffd43ba5f406dd730092a3edcadd0d24235f7c985416f6905",
	"mlz/best/trace":                           "0934254a0bc6537c695f3c65304a385e0c0dc490fcc8977694267b6d08ee35cb",
	"mlzs/c512/a0+0/w1/fast/trace":             "4f5a88e63fb67944c3d674eb19cff81cb47a969ba60998cca3c4c6c920d91e97",
	"mlzs/c512/a0+0/w3/fast/trace":             "4f5a88e63fb67944c3d674eb19cff81cb47a969ba60998cca3c4c6c920d91e97",
	"mlzs/c512/a16+24/w1/fast/trace":           "f293dae6189f7a8bf8bc94caeaccda50eb865db7846c87b998c41307a5054db1",
	"mlzs/c512/a16+24/w3/fast/trace":           "f293dae6189f7a8bf8bc94caeaccda50eb865db7846c87b998c41307a5054db1",
	"mlzs/c4096/a0+0/w1/fast/trace":            "3ac746ae46867b6b66d1f701e37e24873a88b7debed195ecb08fd06359ea55b6",
	"mlzs/c4096/a0+0/w3/fast/trace":            "3ac746ae46867b6b66d1f701e37e24873a88b7debed195ecb08fd06359ea55b6",
	"mlzs/c4096/a16+24/w1/fast/trace":          "87dd901f54b61c10e24579dc3bdb9515636a6c8234c714d67cb9c157e97b6881",
	"mlzs/c4096/a16+24/w3/fast/trace":          "87dd901f54b61c10e24579dc3bdb9515636a6c8234c714d67cb9c157e97b6881",
	"mlzs/c0/a0+0/w1/fast/trace":               "24652b571469b63372f90402ca646953413ec1a8294592310f6f4cd21fc02239",
	"mlzs/c0/a0+0/w3/fast/trace":               "24652b571469b63372f90402ca646953413ec1a8294592310f6f4cd21fc02239",
	"mlzs/c0/a16+24/w1/fast/trace":             "29cf1da1ffa9e855abced06b05367cee95f48330c44fd968e247264280aa50c8",
	"mlzs/c0/a16+24/w3/fast/trace":             "29cf1da1ffa9e855abced06b05367cee95f48330c44fd968e247264280aa50c8",
	"mlzs/c4096/a0+0/w3/best/trace":            "d3bbf9618282cad084f3360495bd7240cb11eda97e1142ff043261a16d277ac4",
	"mlz/fast/skewed":                          "ce3ffe2d24783f65cc48a5baac8047e32573fc38550bdfacffe0bf0864f7c024",
	"mlz/best/skewed":                          "66529f4ec9c7cf574a3a693e430711199194b1b1fe72a4ab874baef0c4facda0",
	"mlzs/c512/a0+0/w1/fast/skewed":            "e9c74e94ce101383ca813416b1f846c40118623725670f09db82d16991fe65dd",
	"mlzs/c512/a0+0/w3/fast/skewed":            "e9c74e94ce101383ca813416b1f846c40118623725670f09db82d16991fe65dd",
	"mlzs/c512/a16+24/w1/fast/skewed":          "732e170dcffcffac1ed672e3d85223dab2fc8c697fe94d80465390ef35937b28",
	"mlzs/c512/a16+24/w3/fast/skewed":          "732e170dcffcffac1ed672e3d85223dab2fc8c697fe94d80465390ef35937b28",
	"mlzs/c4096/a0+0/w1/fast/skewed":           "08d5610a9c9f9e41491cf5b5b7c57d6bfba79e2fe82cff68af06a14f384c45e3",
	"mlzs/c4096/a0+0/w3/fast/skewed":           "08d5610a9c9f9e41491cf5b5b7c57d6bfba79e2fe82cff68af06a14f384c45e3",
	"mlzs/c4096/a16+24/w1/fast/skewed":         "360f98c57acd2ae0d8356a8cd2eb2f8a0553f0c9155b610a3f38ef497fc85453",
	"mlzs/c4096/a16+24/w3/fast/skewed":         "360f98c57acd2ae0d8356a8cd2eb2f8a0553f0c9155b610a3f38ef497fc85453",
	"mlzs/c0/a0+0/w1/fast/skewed":              "2df4184f8ac6cf9aa5f11c5aee19c72ad3200c67e7b84bb5c144f0e8eaf3172e",
	"mlzs/c0/a0+0/w3/fast/skewed":              "2df4184f8ac6cf9aa5f11c5aee19c72ad3200c67e7b84bb5c144f0e8eaf3172e",
	"mlzs/c0/a16+24/w1/fast/skewed":            "b076371652c497dea3e8887dcca7ec0f917eb99a4847c2269cf28e89098a31b0",
	"mlzs/c0/a16+24/w3/fast/skewed":            "b076371652c497dea3e8887dcca7ec0f917eb99a4847c2269cf28e89098a31b0",
	"mlzs/c4096/a0+0/w3/best/skewed":           "d87d069c71b7ec28757536d43af461aeacf526a259dcdf55cf545a6c155dc89e",
	"mlz/fast/mixed":                           "ce874e85352a80c561891a4036b8b53c8136118a808ee96daf0d1fea501aa217",
	"mlz/best/mixed":                           "ea8bb390ddae2b5efb66b446161e878eccbe311088a78d166ae3a4128ee0368c",
	"mlzs/c512/a0+0/w1/fast/mixed":             "b8b69e1036b3e2ae4f722967a2c933ce8a079cbe9c7baf7ceeb7fbd67f41a78d",
	"mlzs/c512/a0+0/w3/fast/mixed":             "b8b69e1036b3e2ae4f722967a2c933ce8a079cbe9c7baf7ceeb7fbd67f41a78d",
	"mlzs/c512/a16+24/w1/fast/mixed":           "0910fc711f727ef586834f12f2e45fdb23e640b2f27924d3cb31b776757bbe40",
	"mlzs/c512/a16+24/w3/fast/mixed":           "0910fc711f727ef586834f12f2e45fdb23e640b2f27924d3cb31b776757bbe40",
	"mlzs/c4096/a0+0/w1/fast/mixed":            "ae16cb5796a96cf77ff89df352111767cc1e508c3b1213e0686b9acee2758552",
	"mlzs/c4096/a0+0/w3/fast/mixed":            "ae16cb5796a96cf77ff89df352111767cc1e508c3b1213e0686b9acee2758552",
	"mlzs/c4096/a16+24/w1/fast/mixed":          "f6ad486dbfba33c8506e9ea519027d329be1b32eb311fbe52a7b976be3bc43c4",
	"mlzs/c4096/a16+24/w3/fast/mixed":          "f6ad486dbfba33c8506e9ea519027d329be1b32eb311fbe52a7b976be3bc43c4",
	"mlzs/c0/a0+0/w1/fast/mixed":               "de41c3080124cd0d0619623333d67414a5fbf1c410e3d8a637d9b3dd4c9a9600",
	"mlzs/c0/a0+0/w3/fast/mixed":               "de41c3080124cd0d0619623333d67414a5fbf1c410e3d8a637d9b3dd4c9a9600",
	"mlzs/c0/a16+24/w1/fast/mixed":             "777548e47e9aa1bd0d6a1af9e13155e4956f52726f09f67fa111f2fd2cee53ca",
	"mlzs/c0/a16+24/w3/fast/mixed":             "777548e47e9aa1bd0d6a1af9e13155e4956f52726f09f67fa111f2fd2cee53ca",
	"mlzs/c4096/a0+0/w3/best/mixed":            "fbac9db0e1afd29c777463a59fe70c95b17d314c67ab8bc1ae96334127709940",
	"mlz/fast/small-mixed":                     "a3835d1115842aa80e89269c0684e36fbea414e86e658d3f7bf557b5fbacb537",
	"mlz/best/small-mixed":                     "8c306494ac62f17c73eccc20e66c0adaec4b6f3180a21cda779ef35e5140d9dc",
	"mlzs/c512/a0+0/w1/fast/small-mixed":       "017d4ec56932795f8aa0b02583f21e668f15a706b908746e3d11cbe8ef340857",
	"mlzs/c512/a0+0/w3/fast/small-mixed":       "017d4ec56932795f8aa0b02583f21e668f15a706b908746e3d11cbe8ef340857",
	"mlzs/c512/a16+24/w1/fast/small-mixed":     "cd6eb28eb4a3906cb987ca82296f34fb41624b32b9a3e375c9468f14eb96199c",
	"mlzs/c512/a16+24/w3/fast/small-mixed":     "cd6eb28eb4a3906cb987ca82296f34fb41624b32b9a3e375c9468f14eb96199c",
	"mlzs/c4096/a0+0/w1/fast/small-mixed":      "72248d8c36e00e897db975387529084ea4384aa8a1ba957b81e458693a45b9e7",
	"mlzs/c4096/a0+0/w3/fast/small-mixed":      "72248d8c36e00e897db975387529084ea4384aa8a1ba957b81e458693a45b9e7",
	"mlzs/c4096/a16+24/w1/fast/small-mixed":    "64637337abb00c33c779cf527e3c3f15f1d1e602e2e25829728f354512f099c4",
	"mlzs/c4096/a16+24/w3/fast/small-mixed":    "64637337abb00c33c779cf527e3c3f15f1d1e602e2e25829728f354512f099c4",
	"mlzs/c0/a0+0/w1/fast/small-mixed":         "71ea5d026616248baf5a77eb4ae698f0f9392cbbf4d3b83d8e6de11da1008260",
	"mlzs/c0/a0+0/w3/fast/small-mixed":         "71ea5d026616248baf5a77eb4ae698f0f9392cbbf4d3b83d8e6de11da1008260",
	"mlzs/c0/a16+24/w1/fast/small-mixed":       "c691aa913111781f2b2a8f0249012abdcb26ea127954384e24e51a9d3b80cf6f",
	"mlzs/c0/a16+24/w3/fast/small-mixed":       "c691aa913111781f2b2a8f0249012abdcb26ea127954384e24e51a9d3b80cf6f",
	"mlzs/c4096/a0+0/w3/best/small-mixed":      "9028ba079f32bb39bac29aab63eb77595ed998a1b626b7a8065d7d7861e5ce4e",
	"mlz/fast/multi-block":                     "47f32102dab0b0cf4165c61ac5604f3467b88580997672f221ac396d3c0b1bd3",
	"mlzs/c0/a0+0/w1/fast/multi-block":         "207465802f726197458a1c3f4757306af633994a3534a2e09c47b466fedc7e09",
	"mlzs/c0/a0+0/w3/fast/multi-block":         "207465802f726197458a1c3f4757306af633994a3534a2e09c47b466fedc7e09",
}

// goldenEncode writes data through w and returns the encoding.
func goldenEncode(t *testing.T, data []byte, mk func(io.Writer) io.WriteCloser) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := mk(&buf)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenCases lists every (name, input, writer) combination the golden
// digests cover.
func goldenCases() []struct {
	name string
	data []byte
	mk   func(io.Writer) io.WriteCloser
} {
	type goldenCase = struct {
		name string
		data []byte
		mk   func(io.Writer) io.WriteCloser
	}
	var cases []goldenCase
	levels := []struct {
		name  string
		level Level
	}{{"fast", LevelFast}, {"best", LevelBest}}
	for _, in := range goldenInputs() {
		for _, l := range levels {
			level := l.level
			cases = append(cases, goldenCase{"mlz/" + l.name + "/" + in.name, in.data, func(w io.Writer) io.WriteCloser {
				return NewMLZWriter(w, level)
			}})
		}
		for _, chunk := range []int{512, 4096, 0} {
			for _, align := range [][2]int{{0, 0}, {16, 24}} {
				for _, workers := range []int{1, 3} {
					opts := MLZSOptions{ChunkSize: chunk, Align: align[0], AlignOffset: align[1], Workers: workers}
					name := fmt.Sprintf("mlzs/c%d/a%d+%d/w%d/fast/%s", chunk, align[0], align[1], workers, in.name)
					cases = append(cases, goldenCase{name, in.data, func(w io.Writer) io.WriteCloser {
						return NewMLZSWriter(w, opts)
					}})
				}
			}
		}
		opts := MLZSOptions{ChunkSize: 4096, Level: LevelBest, Workers: 3}
		cases = append(cases, goldenCase{"mlzs/c4096/a0+0/w3/best/" + in.name, in.data, func(w io.Writer) io.WriteCloser {
			return NewMLZSWriter(w, opts)
		}})
	}
	// More than one 4 MiB MLZ block, and several default-size chunks.
	big := mlzsTestPayload(1<<22+4097, 9)
	cases = append(cases, goldenCase{"mlz/fast/multi-block", big, func(w io.Writer) io.WriteCloser {
		return NewMLZWriter(w, LevelFast)
	}})
	for _, workers := range []int{1, 3} {
		opts := MLZSOptions{Workers: workers}
		cases = append(cases, goldenCase{fmt.Sprintf("mlzs/c0/a0+0/w%d/fast/multi-block", workers), big, func(w io.Writer) io.WriteCloser {
			return NewMLZSWriter(w, opts)
		}})
	}
	return cases
}

// TestGoldenEncodings pins every byte both writers produce on the golden
// inputs, and checks each encoding decodes back to its input.
func TestGoldenEncodings(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range goldenCases() {
		enc := goldenEncode(t, c.data, c.mk)
		sum := sha256.Sum256(enc)
		got := hex.EncodeToString(sum[:])
		seen[c.name] = true
		if want, ok := goldenEncodings[c.name]; !ok {
			t.Errorf("no golden digest for %q: %q", c.name, got)
		} else if got != want {
			t.Errorf("%s: encoding digest %s, want %s (%d bytes)", c.name, got, want, len(enc))
		}
		r, err := NewReader(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("%s: open: %v", c.name, err)
		}
		dec, err := io.ReadAll(r)
		if err != nil || !bytes.Equal(dec, c.data) {
			t.Fatalf("%s: decode gave %d bytes and %v, want the %d-byte input", c.name, len(dec), err, len(c.data))
		}
	}
	for name := range goldenEncodings {
		if !seen[name] {
			t.Errorf("golden digest %q names no case", name)
		}
	}
}

// goldenDamage is the digest of what the readers do with damaged copies
// of small containers (see TestGoldenDamageOutcomes).
var goldenDamage = map[string]string{
	"mlz/fast/one-byte":             "ba29496c40d88e48972f2b24fdd897384739bc687d65e2926ee1459c34606d08",
	"mlz/fast/plain-lz":             "52623a267bb9756710bc7fdc243f22ece7ea171cff8ed3999e82b713bb6d182b",
	"mlz/fast/small-mixed":          "e2de8a68e795978e2194b4da011ec52901f64674005d786e2f18a2f7fa3fcad6",
	"mlzs/c2048/a16+24/small-mixed": "906e2bcdb3746ee638942bb96f9dba0982868bc63b526a60129bd4a1525abc8d",
}

// TestGoldenDamageOutcomes pins how both readers fail: every byte of a
// small MLZ and MLZS container is flipped in turn and every prefix is
// read, and for each copy the bytes delivered and the faults class of the
// error are recorded. The digest of that transcript must not
// move, so no damaged input delivers more or fewer bytes or changes class.
func TestGoldenDamageOutcomes(t *testing.T) {
	inputs := map[string][]byte{}
	for _, in := range goldenInputs() {
		inputs[in.name] = in.data
	}
	mlz := func(w io.Writer) io.WriteCloser { return NewMLZWriter(w, LevelFast) }
	// One stored, one plain-LZ and one Huffman MLZ block; MLZS chunks of
	// all three kinds.
	containers := []struct {
		name string
		enc  []byte
	}{
		{"mlz/fast/one-byte", goldenEncode(t, inputs["one-byte"], mlz)},
		{"mlz/fast/plain-lz", goldenEncode(t, inputs["plain-lz"], mlz)},
		{"mlz/fast/small-mixed", goldenEncode(t, inputs["small-mixed"], mlz)},
		{"mlzs/c2048/a16+24/small-mixed", goldenEncode(t, inputs["small-mixed"], func(w io.Writer) io.WriteCloser {
			return NewMLZSWriter(w, MLZSOptions{ChunkSize: 2048, Align: 16, AlignOffset: 24})
		})},
	}
	outcome := func(b []byte) string {
		r, err := NewReader(bytes.NewReader(b))
		var got []byte
		if err == nil {
			got, err = io.ReadAll(r)
		}
		// MLZ blocks carry no checksum, so the bytes delivered are part
		// of the outcome, not only their count.
		return fmt.Sprintf("%d %x %s", len(got), sha256.Sum256(got), faults.Class(err))
	}
	for _, c := range containers {
		h := sha256.New()
		for off := range c.enc {
			mut := bytes.Clone(c.enc)
			mut[off] ^= 0x40
			fmt.Fprintf(h, "flip %d: %s\n", off, outcome(mut))
		}
		for n := range c.enc {
			fmt.Fprintf(h, "cut %d: %s\n", n, outcome(c.enc[:n]))
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want, ok := goldenDamage[c.name]; !ok {
			t.Errorf("no golden damage digest for %q: %q", c.name, got)
		} else if got != want {
			t.Errorf("%s: damage transcript digest %s, want %s", c.name, got, want)
		}
	}
}
