package modelcheck

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"regexp"
	"testing"

	"guardrails/benchmark/gen"
	"guardrails/internal/compile"
	"guardrails/internal/spec"
	"guardrails/internal/spec/interfere"
	"guardrails/internal/vm"
)

// manifestDeployment loads the check_manifest workload's generated
// tool-governance deployment (benchmark/gen, read-only) the way the
// benchmark's pipeline assembles it: every file's monitors, features and
// asserts in file order.
func manifestDeployment(t testing.TB, seed int64, ladders int) (*interfere.Deployment, Config) {
	t.Helper()
	dep := &interfere.Deployment{}
	var cfg Config
	addManifest(t, dep, &cfg, gen.BuildManifest(seed, ladders), "")
	return dep, cfg
}

// manifestCopies is k disjoint copies of the check_manifest deployment:
// the manifests of seeds 1…k with every ladder, each copy's guardrail,
// key and site names prefixed ("c2_tool_3"), so that copies share
// nothing but the timer schedule — k × 200 guardrails, the shape the
// load gate's scaling was first measured on.
func manifestCopies(t testing.TB, k int) (*interfere.Deployment, Config) {
	t.Helper()
	dep := &interfere.Deployment{}
	var cfg Config
	for c := 1; c <= k; c++ {
		addManifest(t, dep, &cfg, gen.BuildManifest(int64(c), gen.Ladders), fmt.Sprintf("c%d_", c))
	}
	return dep, cfg
}

// generatedName matches the start of every name benchmark/gen writes:
// guardrails (g007-rate, lad0-alert, cf1-open, osc-up), keys (sig_3,
// deny_tool_5, quota_2, lad0_err, cf1_gate, osc_mode) and sites (tool_5).
var generatedName = regexp.MustCompile(`\b(g\d{3}-|lad\d|cf\d|osc|sig_|deny_tool_|quota_|tool_)`)

// addManifest compiles a generated manifest's files into dep and cfg,
// with prefix before every generated name.
func addManifest(t testing.TB, dep *interfere.Deployment, cfg *Config, m *gen.Manifest, prefix string) {
	t.Helper()
	for _, sf := range m.Files {
		f, err := spec.ParseChecked(generatedName.ReplaceAllString(sf.Source, prefix+"$1"))
		if err != nil {
			t.Fatalf("%s: %v", sf.Name, err)
		}
		cs, err := compile.File(f)
		if err != nil {
			t.Fatalf("%s: %v", sf.Name, err)
		}
		dep.Monitors = append(dep.Monitors, cs...)
		dep.Features = append(dep.Features, f.Features...)
		cfg.Properties = append(cfg.Properties, f.Properties...)
	}
}

// TestManifestCopiesAddStates: disjoint copies of the check_manifest
// deployment are independent components apart from their timers, so
// their states add where the whole product multiplied them (162 per
// copy, which passed the 2 048-state bound at two copies). The count is
// the shared initial state, two more per ladder (eight per copy), and
// one more for the oscillators: every copy's timer-driven monitors are
// one component, and its oscillators tick in the same coincidence
// classes, so they flip together. Every property is PROVED and every
// copy's planted GM003 findings are there, at 400 guardrails and at
// 3 200.
func TestManifestCopiesAddStates(t *testing.T) {
	for _, k := range []int{2, 16} {
		dep, cfg := manifestCopies(t, k)
		rep := Check(dep, cfg)
		if rep.Truncated {
			t.Fatalf("manifest×%d: truncated (%s)", k, rep.TruncationReason)
		}
		if want := 2 + 8*k; rep.States != want {
			t.Errorf("manifest×%d: %d states, want %d", k, rep.States, want)
		}
		if len(rep.Properties) != 8*k {
			t.Fatalf("manifest×%d: %d properties, want %d", k, len(rep.Properties), 8*k)
		}
		for _, p := range rep.Properties {
			if p.Status != StatusProved {
				t.Errorf("manifest×%d: %s %s (%s)", k, p.Property, p.Status, p.Reason)
			}
		}
		gm003 := 0
		for _, d := range rep.Diagnostics {
			if d.Code == CodeOscillation {
				gm003++
			}
		}
		if gm003 != 4*k {
			t.Errorf("manifest×%d: %d GM003 findings, want %d (three conflict pairs and the oscillator per copy)", k, gm003, 4*k)
		}
	}
}

// TestReportsPinned is the exactness gate for changes to how the checker
// explores: per fixture, the SHA-256 of the JSON report with Witness off
// and on, and the abstract interpretations a check of a fresh deployment
// performs (Deployment.Analyses). The values were recorded at commit
// 951d2f4, before the effect cache, incremental signatures and the
// distinct-write oscillation search; a change that moves one changed what
// the checker reports or asks, not just how fast. The third digest pins
// what the compiler hands the checker: the SHA-256 of every monitor's
// vm.Encode image, in deployment order, so an optimizer change that
// moves no report still shows which programs it rewrote. The fourth
// digest is the same over vm.Certify then vm.Encode of a copy of each
// program, so the image codec's certificate section has a referee too;
// its values were recorded before Encode dropped encoding/binary's
// reflection for binary.LittleEndian.Append*. Both image digests were
// re-recorded when the ISA became three-address: every image changed
// format (GRVM3, one more byte per instruction) and every program with
// arithmetic lost its operand copies, while both report digests and
// the analyses counts stayed as they were. The report digests of the
// deployments with more than one independent component (ladder+40,
// witness.grail and the manifests) were re-recorded when the checker
// began exploring components apart: their state counts add instead of
// multiplying, so States and the certificates' States, Transitions and
// Depth moved, a witness search ranges over its component's keys only
// (fewer inputs; in the manifests, a GM003 of each conflict pair that
// was PLAUSIBLE is now CONFIRMED), and every verdict, code and
// guardrail, every trace and every analyses count stayed as it was.
func TestReportsPinned(t *testing.T) {
	cases := testdataDeployments(t)
	cases["ladder+40"] = func(t *testing.T) (*interfere.Deployment, Config) {
		return deployment(t, ladderSrc(40)), Config{Properties: props(t, ladderProps...)}
	}
	cases["osc"] = func(t *testing.T) (*interfere.Deployment, Config) {
		return deployment(t, oscSrc), Config{Properties: props(t, "always LOAD(mode) <= 0", "eventually LOAD(mode) >= 2 within 4")}
	}
	for _, seed := range []int64{1, 5} {
		for _, ladders := range []int{2, 4} {
			cases[fmt.Sprintf("manifest-seed%d-ladders%d", seed, ladders)] = func(t *testing.T) (*interfere.Deployment, Config) {
				return manifestDeployment(t, seed, ladders)
			}
		}
	}

	type pin struct {
		off, on   string // report digest, Witness off / on
		analyses  int
		programs  string // digest of the monitors' encoded images
		certified string // digest of the monitors' certified images
	}
	pinned := map[string]pin{
		"aggregates.grail":        {"dec861482b1140f43b4e167048ae91be80fdf20b0a19bdf9a076d138d468f87c", "dec861482b1140f43b4e167048ae91be80fdf20b0a19bdf9a076d138d468f87c", 1, "2f2582fcae0321fe441012aa47a6d8a4658ec0ad70d82679da386273e7fa456d", "c805175e197d5eea8c44f19391a0b10ed4b565984ba103838dd67290d7b5d5a7"},
		"aggregates_clean.json":   {"dec861482b1140f43b4e167048ae91be80fdf20b0a19bdf9a076d138d468f87c", "dec861482b1140f43b4e167048ae91be80fdf20b0a19bdf9a076d138d468f87c", 1, "2f2582fcae0321fe441012aa47a6d8a4658ec0ad70d82679da386273e7fa456d", "c805175e197d5eea8c44f19391a0b10ed4b565984ba103838dd67290d7b5d5a7"},
		"aggregates_dirty.json":   {"dec861482b1140f43b4e167048ae91be80fdf20b0a19bdf9a076d138d468f87c", "dec861482b1140f43b4e167048ae91be80fdf20b0a19bdf9a076d138d468f87c", 1, "2f2582fcae0321fe441012aa47a6d8a4658ec0ad70d82679da386273e7fa456d", "c805175e197d5eea8c44f19391a0b10ed4b565984ba103838dd67290d7b5d5a7"},
		"budget.json":             {"2e2052ccc35eeb1187af2be487063d0be0647cce6e3c463aee646fe076171807", "778cc2fd3c83d59fffc2620d96a483b2960a0a745c80d6dd17ef0e2c0d30a660", 2, "e2cc85971070299988bb6545ab4167dd8881b325b07a1c97e2eb34744e33c7eb", "8c7a1a02aedad3a01fb0f8f832b2b4253f5116757b3ab15fb82828d3cc17d58a"},
		"clean.json":              {"f5fd4de5077d0535b17c229c1d2f0d429ebb54bf76401d56d0d9909a18ad4689", "f5fd4de5077d0535b17c229c1d2f0d429ebb54bf76401d56d0d9909a18ad4689", 6, "0c71ccea65367e124f8696ee94fbb96a7ed914cafdbb40b8d28da8c5b235db27", "bfa502affb726b8f6676f1e379ad7c6b05136fef07ee38c1f2ebf6320ff3cc4f"},
		"clean_core.grail":        {"b2bc3b5d83813ada1dc055153d8a7eec07d8065732889a9f5211281f6d38d94c", "b2bc3b5d83813ada1dc055153d8a7eec07d8065732889a9f5211281f6d38d94c", 5, "cacaa09dd7b02531e85eef1291c91786f3b6d6acbfc5b176d90cf5bd91f9103c", "fbf13fe2bff338a18da646a4b350a77f1ae3e592c822b9e9cfc293d300dd0210"},
		"clean_hook.grail":        {"46f2620ab1745600a018718b1dbbac33f5f86410f6327fcbc09807fa84a6a7f9", "46f2620ab1745600a018718b1dbbac33f5f86410f6327fcbc09807fa84a6a7f9", 1, "0a3f1a6142e9485621b27a8cb7fc905627a1e37151548e454329992e7782914b", "6c507530b5cd1d0a44e54a70afb857b7644e66c72186e317db27a283a49da965"},
		"conflict.json":           {"2e2052ccc35eeb1187af2be487063d0be0647cce6e3c463aee646fe076171807", "778cc2fd3c83d59fffc2620d96a483b2960a0a745c80d6dd17ef0e2c0d30a660", 2, "e2cc85971070299988bb6545ab4167dd8881b325b07a1c97e2eb34744e33c7eb", "8c7a1a02aedad3a01fb0f8f832b2b4253f5116757b3ab15fb82828d3cc17d58a"},
		"conflict_a.grail":        {"46f2620ab1745600a018718b1dbbac33f5f86410f6327fcbc09807fa84a6a7f9", "46f2620ab1745600a018718b1dbbac33f5f86410f6327fcbc09807fa84a6a7f9", 1, "1a87642686ff6d2f3e8f0cd2a7830068dbca686853cccca0d8972641c0b27306", "50af6d834404c88d4809995a641000a88ae02287372e5c9f7d064e10ac84426e"},
		"conflict_b.grail":        {"c35bd97fb4e78170dc09dcb73ea0646c789285ec753c83eeaac2dbd5bd95316d", "c35bd97fb4e78170dc09dcb73ea0646c789285ec753c83eeaac2dbd5bd95316d", 1, "95ba95f3b6398c43197e47a85b1a45b3ea447a689e222a9363c027a9f4c34a08", "e0f81b2d903789b2904c0ed330e63624fc0f9e73f041241459dba4daf7956fb2"},
		"deep_witness.grail":      {"46f2620ab1745600a018718b1dbbac33f5f86410f6327fcbc09807fa84a6a7f9", "46f2620ab1745600a018718b1dbbac33f5f86410f6327fcbc09807fa84a6a7f9", 2, "a30973ca0cf60a3c2994259a54761eb9962335574904173aa8a6b126e9fd0ce4", "c80e2a1bf0c293b93ced6ae49696ea967d6da7a2454debb6a87ffb5a828d4a46"},
		"feedback.grail":          {"d54a874aee22809d724c4b3927cc24351474b8de6e7453883f3deafbfe4ff780", "d54a874aee22809d724c4b3927cc24351474b8de6e7453883f3deafbfe4ff780", 2, "5bce6af5c006aef73bdb6e9d73d03925c4ad74492e0a96eb51fdc9f606736bec", "3d748469162a6edc00a8b107ae7dcb43145878b1e3b3c7655a2c83326827c5bf"},
		"ladder+40":               {"cd6ef8c48f89a661a121ea5e83541f7e750590e0fb3e238c72806175f1572ade", "cd6ef8c48f89a661a121ea5e83541f7e750590e0fb3e238c72806175f1572ade", 46, "43f622386c16b212da25ad2f72815e59f46c07287068541339cd97db8ac649c2", "cba9b66d43bfa042f7d6d5d33354986ce4141cedab4ac514eef1d92bf0a38454"},
		"listing2.grail":          {"186017e2f2df0ec08d85c1f4237b616ecb16f5ae08e3b73028f8bd89ed5d29f0", "186017e2f2df0ec08d85c1f4237b616ecb16f5ae08e3b73028f8bd89ed5d29f0", 1, "62fbdc50956b4d97fa6503766655fb214acdea92e63852761002dd8dbaae1b14", "f8aa74ad7d47f64c7720875a54761b5c8c29b2164efd4fd1c23a188f96c8083b"},
		"manifest-seed1-ladders2": {"10db4e985fbc7a23e1fa7335ecd9b43a187f3cb99e13451a1ca4dfbc5cae04ac", "fdb38722cda4728e6b931aa63052119643334ebdb5059b9c8561ad4b2e8527d9", 214, "64e1d58b27d00733c3e710359007859021f882472596affdba49e0bd00d18ab5", "78a775312d6044b59ec374786c5c8701d24212db29332659b3aa4f962a94dc45"},
		"manifest-seed1-ladders4": {"2aece22ebccfce422f41ed3bf14b97e496aa356327e75c803dfbddb5110061c7", "0c47ef82ae7b873954e1c5e241decaa0ed53837165b4b679f8ce6ece765b6060", 226, "40abc8ac2957f7c059f4ed63f9e32ed79f537bfcf348a2c876a0d1f149878768", "7209d8b49abb1aaaaed565fc4df33ff2933a9108f4c1f8ca6715e0f5a5ee6b1c"},
		"manifest-seed5-ladders2": {"71cd9417bcd975cb5c7133a4da1574503c342a6ed950fab4ac52bc235d236b8f", "608386e8f85073f884d46af922442c42ace69d9967171a308149b3227c7ca989", 214, "42a0d55cf16fce5b078a2ffd92408fed10b32af7b8da95e93fa30c8237364817", "c1d51070865a0bb1794dcc588808d6d85b628708b0477a826331e5ba799b1e9d"},
		"manifest-seed5-ladders4": {"da16bb4369f1c04d323814b6256fca120340b9a885d058d1b22362f55432ca26", "f62560c4d58261cea365624530c9c2016e8509030bfa2aeba6e12f40dadf05d8", 226, "84248fcd4a976f4a809f412ab2cff0b1185e6406e98ac62add0c6087f28b63e4", "dd36776355aa43f1292b208ea0be34641e4305b8e05ead50d9b990e2ae93a7bc"},
		"osc":                     {"3315effe2e3e81862ec684f41a3b85c62473aad2448c7eb0ef5ca6295ebd0856", "1539c641db334709ca28ed9a02ce6bf3ad602ae78c415f2d343538723c31dadc", 8, "e9a1129af195669ec189ae83566c2f2d011bb0f391850db3442074b43f22eeff", "3afeec24f283ed83304589edaf841136caecc066e834a312edf572700f0f0898"},
		"sharded.json":            {"2e2052ccc35eeb1187af2be487063d0be0647cce6e3c463aee646fe076171807", "778cc2fd3c83d59fffc2620d96a483b2960a0a745c80d6dd17ef0e2c0d30a660", 2, "e2cc85971070299988bb6545ab4167dd8881b325b07a1c97e2eb34744e33c7eb", "8c7a1a02aedad3a01fb0f8f832b2b4253f5116757b3ab15fb82828d3cc17d58a"},
		"temporal_clean.grail":    {"5f549f46b8d420e5ef065abecfc8de7012978e227768eecbc202981858c57a8b", "5f549f46b8d420e5ef065abecfc8de7012978e227768eecbc202981858c57a8b", 6, "fcc24d0280c03d778d77529dafae9370f17701f591f8cfaeb40010530eb8274d", "f5ad84d583b0ce146000cb91a9e11049ba73c374976ba55fff1292f6929c9f37"},
		"temporal_clean.json":     {"c17f016658537e98826d1f5b88e14de9a5c579b67466cb1ebebfc792b2e4d1cd", "c17f016658537e98826d1f5b88e14de9a5c579b67466cb1ebebfc792b2e4d1cd", 8, "fcc24d0280c03d778d77529dafae9370f17701f591f8cfaeb40010530eb8274d", "f5ad84d583b0ce146000cb91a9e11049ba73c374976ba55fff1292f6929c9f37"},
		"temporal_osc.grail":      {"e13f5a665dbf7b7e43da72d30fca7625301e2811eee0361866abefdfb8afbf55", "5a813816572b4be6f6796749444947774c3ac6cb60f36e2865c2c79b9e59dcab", 6, "e9a1129af195669ec189ae83566c2f2d011bb0f391850db3442074b43f22eeff", "3afeec24f283ed83304589edaf841136caecc066e834a312edf572700f0f0898"},
		"vet_range.grail":         {"218d64f456fcf9edbed2362384f8836b42a5265783f5354668ea7ec5cff9051f", "218d64f456fcf9edbed2362384f8836b42a5265783f5354668ea7ec5cff9051f", 3, "232e264790f2aae04c125b067b9a91f0dde0eaabeecc258e4f0e893291aca606", "b092a05b6ebd48ef2e689dc0df8828fa0eaee99180bcab6621340eebf4bc2830"},
		"witness.grail":           {"4b16fb4c33f331ce66e2e6b43537e4a47b2bdb411e3b0d030cc6f968c7df00f7", "e6d97e9b11e2690a6dce05b857b806f8c65e02f3ea2772e9936bbe633674dde4", 4, "d5b7e29069182ce06c22da4eaa9141f5d83891affd9b426a26d8f7a70fa19978", "d89374724c3be8ea1c9669811b7fdcaf23950c5fdca4ad857bb31921a59a845a"},
		"witness_order.grail":     {"dc8c6231cabf945cc1e8cafd7eb09af5cb514d147b49d12f84f88f5fef50d526", "8c90ba1508bdf77dd3a6d59e148b4280b5b0c3530f152f751ff607b3f3da5b4a", 6, "a243b146790df723c6dae4df612b3dd73ceeb20b6cb40a48f9433eec345ab5ff", "b6d2e597110c57fd95c3fdd70795cc8d09f010b12ca73604865522a4f8125f10"},
	}

	digest := func(rep *Report) string {
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		return hex.EncodeToString(sum[:])
	}
	programs := func(dep *interfere.Deployment) string {
		h := sha256.New()
		for _, c := range dep.Monitors {
			if err := c.Program.Encode(h); err != nil {
				t.Fatal(err)
			}
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	certified := func(dep *interfere.Deployment) string {
		h := sha256.New()
		for _, c := range dep.Monitors {
			p := *c.Program
			if err := vm.Certify(&p, vm.NumBuiltinHelpers); err != nil {
				t.Fatal(err)
			}
			if err := p.Encode(h); err != nil {
				t.Fatal(err)
			}
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	for name, load := range cases {
		t.Run(name, func(t *testing.T) {
			dep, cfg := load(t)
			var got pin
			got.programs = programs(dep)
			got.certified = certified(dep)
			got.off = digest(Check(dep, cfg))
			got.analyses = dep.Analyses()
			dep, cfg = load(t)
			cfg.Witness = true
			got.on = digest(Check(dep, cfg))
			if want, ok := pinned[name]; !ok || got != want {
				t.Errorf("got %q: {%q, %q, %d, %q, %q}, pinned %+v", name, got.off, got.on, got.analyses, got.programs, got.certified, want)
			}
		})
	}
}
