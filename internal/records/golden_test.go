package records

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// goldenN is the record count the hashes below were captured at; odd, so the
// boundary between the halves of GenerateHalves lands mid-stride.
const goldenN = 4*4096 + 75

// goldenGenerate pins the generators' output bytes: sha256 of Raw() for
// n=goldenN, seed 20020724, per "<family>/<dist>/<size>". The hashes were
// captured from the byte-at-a-time filler (commit ef8c6e9); keys, buckets,
// virtual time and every recorded statistic depend on these bytes, so a
// faster filler must reproduce them exactly.
var goldenGenerate = map[string]string{
	"generate/exp/4":       "0ae5eb1c9ee7039b8f51b4aa6d4314815395d7fe4ed7556a250d66703229f5ee",
	"generate/exp/5":       "ff5827745c5701a725fa78d74fdcbd0ffd0e8072600b55cb82d16258c676ff62",
	"generate/exp/12":      "5154efe5a07ec0061ef62978f9033e1c83ebe278c58fbcca3246f6133c755049",
	"generate/exp/100":     "b01d948f1d928c4a6127064bed47223f0b15ce9ebefe5cc112af65f8a3b7bfb6",
	"generate/exp/128":     "68fa2cb4ed6227f7317fc449d44b9735dc1cb37b3575267eb4aba27ca1a658f5",
	"generate/exp/131":     "bba3a8d70c0b0d63f07999df910941a4a7528bdad1b141931c76aa2a613dd643",
	"generate/sorted/4":    "a7577e380bc96d627f392489dd4bb25c6261c4dc5c145a43064c685520a1dc1b",
	"generate/sorted/5":    "e98978ed30b5a33759e39802db3c474b4508dcf43f0ac0ac8ca1786e19182107",
	"generate/sorted/12":   "6f8b2c397db37229f08bc40b93876f10d3b5b32cdb96c8b215bb1adb825b3f5b",
	"generate/sorted/100":  "601facf5db04ebc32d53198293686cec8c5be7778e80be2c99f9345b7e8f6f60",
	"generate/sorted/128":  "a740fb2afdcdd2bf175a7041c2ed4e499a18ac6074688db15743373b61afec5c",
	"generate/sorted/131":  "9613d73c337b4dad9ec1386ad421bcb1ab650cc5ed3f42000ae954b22ee89b9b",
	"generate/uniform/4":   "5ded1e72b6656c26b4f16deeaac42153bdde42fff81cdbcd3f0f0c46fad94cb1",
	"generate/uniform/5":   "394dfbb07e0a1c8d8b9810dc0e379ca9e7716093e658e29c3658991778879842",
	"generate/uniform/12":  "198c571e18a5c0ac61c0f7afd81af374ccf94e99b26bcb03882863649c1dabe3",
	"generate/uniform/100": "354a8511d5d9d05329d635c1d865853d67e135f7f08c71117d0f225e37e630a9",
	"generate/uniform/128": "376aa3533a17174cdfddb0a2a71f8d7c5eaadcdb409c73ee38ebf1911cff2891",
	"generate/uniform/131": "3c0d511fc9220d9dc3334f4ce79b0b2c74989744ed86203c5aecadc8f5a94b20",
	"halves/exp/4":         "8e609040881fde791d5a35d9c5186c74a2b3c63f9683c1b0cf84ae0de4d19c2f",
	"halves/exp/5":         "368c1f37d0d20e823227a8039cb357b0ce66ed7f893e347c487d894fcaeba8f0",
	"halves/exp/12":        "11219a9e575f1592e4e29aecbabfc4b35d2308209d3e5bc6926e3c89a9502e3f",
	"halves/exp/100":       "da02902199e41364baf278fea1351e03970c993e278b5de8cb873e972e56a9d5",
	"halves/exp/128":       "1ba0470b25cc07de92698d9241298cc2de0851497950f28d90c3714c45b0eecf",
	"halves/exp/131":       "06059646843eeda78facb870f3e044486a92eec42a20eb9ac2db0056e15ea962",
	"halves/sorted/4":      "194f267eea137375955aeee6968ab7a91b83cb6f8d91d89a7668e7090525ba6d",
	"halves/sorted/5":      "3731ef6a557ce2d3cd3c7012a2260be75f8ec1b39105405281786f0385f35f98",
	"halves/sorted/12":     "7e05c5aa58848ede6cc6674c0e924bca9ba375f0759fa1189dd6f6e905323ef4",
	"halves/sorted/100":    "03550c568cc78a802f0883d6302812570d2508a038aa112402c5486b4b10a80d",
	"halves/sorted/128":    "1d0c7d1c3a5426127d59b5544d055899539a6a4def48509284ae9b69bc6026fe",
	"halves/sorted/131":    "2576ba32feef335fa588c5509dbd2c03f1dcc5f45adbd21fd8726d8f8b753d0a",
	"halves/uniform/4":     "ba18a01446f3c19fe0bba1f2748f01e62b8985f3d1edf6a4581ebdb334087089",
	"halves/uniform/5":     "59fb3c4de46ca964ca1235d4f3fac8c68898246e5c06d0a51e827c052df1edd9",
	"halves/uniform/12":    "67899a34608644e77004b35cf2dff2ebf05f9ef44e9d9350ca829cf6da8fc183",
	"halves/uniform/100":   "d1765854bbf1f359982e302292a97618d1699c2156bea7fdbab311b7703d667a",
	"halves/uniform/128":   "7dbf81919ae181c7db0bfab65e99a6b74b2c62d124d192b4511750ba4a3d1583",
	"halves/uniform/131":   "5d9cdb01a41d4f6564232ab6ea28b30588e0f8040314b422bab5286995e50af7",
}

func goldenDist(name string) KeyDist {
	switch name {
	case "uniform":
		return Uniform{}
	case "exp":
		return Exponential{}
	case "sorted":
		return &Sorted{} // stateful: a fresh one per generation
	}
	panic("unknown dist " + name)
}

func TestGenerateGolden(t *testing.T) {
	const seed = 20020724
	sum := func(b Buffer) string {
		h := sha256.Sum256(b.Raw())
		return hex.EncodeToString(h[:])
	}
	dists := []string{"uniform", "exp", "sorted"}
	for di, dist := range dists {
		second := dists[(di+1)%len(dists)]
		for _, size := range []int{4, 5, 12, 100, 128, 131} {
			check := func(family string, b Buffer) {
				t.Helper()
				key := fmt.Sprintf("%s/%s/%d", family, dist, size)
				if got := sum(b); got != goldenGenerate[key] {
					t.Errorf("%s: sha256 %s, want %s", key, got, goldenGenerate[key])
				}
			}
			check("generate", Generate(goldenN, size, seed, goldenDist(dist)))
			check("halves", GenerateHalves(goldenN, size, seed, goldenDist(dist), goldenDist(second)))
		}
	}
}
