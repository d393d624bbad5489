package modelcheck

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
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
	for _, sf := range gen.BuildManifest(seed, ladders).Files {
		f, err := spec.ParseChecked(sf.Source)
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
	return dep, cfg
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
// reflection for binary.LittleEndian.Append*.
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
		"aggregates.grail":        {"dec861482b1140f43b4e167048ae91be80fdf20b0a19bdf9a076d138d468f87c", "dec861482b1140f43b4e167048ae91be80fdf20b0a19bdf9a076d138d468f87c", 1, "cc74a5239129130cde061166c254dfa24d5cd67abf93c39d86d55e85f04d1e01", "6236c0c2eeaeb0e3a0936a01a755ff9c1b16c023cfb4616477d3fe24cf953ae1"},
		"aggregates_clean.json":   {"dec861482b1140f43b4e167048ae91be80fdf20b0a19bdf9a076d138d468f87c", "dec861482b1140f43b4e167048ae91be80fdf20b0a19bdf9a076d138d468f87c", 1, "cc74a5239129130cde061166c254dfa24d5cd67abf93c39d86d55e85f04d1e01", "6236c0c2eeaeb0e3a0936a01a755ff9c1b16c023cfb4616477d3fe24cf953ae1"},
		"aggregates_dirty.json":   {"dec861482b1140f43b4e167048ae91be80fdf20b0a19bdf9a076d138d468f87c", "dec861482b1140f43b4e167048ae91be80fdf20b0a19bdf9a076d138d468f87c", 1, "cc74a5239129130cde061166c254dfa24d5cd67abf93c39d86d55e85f04d1e01", "6236c0c2eeaeb0e3a0936a01a755ff9c1b16c023cfb4616477d3fe24cf953ae1"},
		"budget.json":             {"2e2052ccc35eeb1187af2be487063d0be0647cce6e3c463aee646fe076171807", "778cc2fd3c83d59fffc2620d96a483b2960a0a745c80d6dd17ef0e2c0d30a660", 2, "7c54e10def039847ca11ec1a0074e00e410df4b24ad5b2ac95e5eac0d151f243", "d335056884421db6032d1863dee03bbe401088da487ce2a07a7b14eddbc82b1e"},
		"clean.json":              {"f5fd4de5077d0535b17c229c1d2f0d429ebb54bf76401d56d0d9909a18ad4689", "f5fd4de5077d0535b17c229c1d2f0d429ebb54bf76401d56d0d9909a18ad4689", 6, "576fd37173506a5d6aeb1245b0d836d3273ce2458aaf58bbb6fb1b60c69d3fa3", "4674fdd5d9998c4f3e67f7004dabe88649746717d3c6f934b4b883241369cfe0"},
		"clean_core.grail":        {"b2bc3b5d83813ada1dc055153d8a7eec07d8065732889a9f5211281f6d38d94c", "b2bc3b5d83813ada1dc055153d8a7eec07d8065732889a9f5211281f6d38d94c", 5, "12ca1569abc4f12053f27adf358ff4eff0b939e6b1356f8f76528002c0477465", "fa4fdf70694ed791d03e87450accdb4cd8f69df2ee0f59f4af9de5154d07b99f"},
		"clean_hook.grail":        {"46f2620ab1745600a018718b1dbbac33f5f86410f6327fcbc09807fa84a6a7f9", "46f2620ab1745600a018718b1dbbac33f5f86410f6327fcbc09807fa84a6a7f9", 1, "6ed6b98ccc4d74c42f265fb2d6e2f1859629b005ab58595141b0c03a031d53e6", "b6638df0ce9bd09eedf7d4aed9b91bdeb01333c076baf9f6cbf3183addc0ff38"},
		"conflict.json":           {"2e2052ccc35eeb1187af2be487063d0be0647cce6e3c463aee646fe076171807", "778cc2fd3c83d59fffc2620d96a483b2960a0a745c80d6dd17ef0e2c0d30a660", 2, "7c54e10def039847ca11ec1a0074e00e410df4b24ad5b2ac95e5eac0d151f243", "d335056884421db6032d1863dee03bbe401088da487ce2a07a7b14eddbc82b1e"},
		"conflict_a.grail":        {"46f2620ab1745600a018718b1dbbac33f5f86410f6327fcbc09807fa84a6a7f9", "46f2620ab1745600a018718b1dbbac33f5f86410f6327fcbc09807fa84a6a7f9", 1, "98b73a50498f50519c2ce8b8344f125dbd9311fd6f022f9326c76fb4d482311e", "4c85cd1d179df160c2096a100a1cb925dcc4100e1c650c6e28eb34e8b17061c1"},
		"conflict_b.grail":        {"c35bd97fb4e78170dc09dcb73ea0646c789285ec753c83eeaac2dbd5bd95316d", "c35bd97fb4e78170dc09dcb73ea0646c789285ec753c83eeaac2dbd5bd95316d", 1, "9be8c88f53c84be2c2433ce0c16bd41553d6fcfa3e2bc8fd3b41ee717ff822a9", "e540055c1c618491d3ed93d02e893e7fdbe94b9df25271607e2974a4f01f2a33"},
		"deep_witness.grail":      {"46f2620ab1745600a018718b1dbbac33f5f86410f6327fcbc09807fa84a6a7f9", "46f2620ab1745600a018718b1dbbac33f5f86410f6327fcbc09807fa84a6a7f9", 2, "5dcc03c470d20573e779dc4bbcb538f8fe55869809bb3b58df4f1572db6a83d1", "4468efef61d4dcd1c09e665c7b3da470ae6742628e056364c329a86e1568d7fa"},
		"feedback.grail":          {"d54a874aee22809d724c4b3927cc24351474b8de6e7453883f3deafbfe4ff780", "d54a874aee22809d724c4b3927cc24351474b8de6e7453883f3deafbfe4ff780", 2, "04e3e67c67fb87f76e77e287e092fc35c13bc1e7d85df64456c3994016e8c371", "2bfc1296bb80eab57070717ad5e984a2ca1c65f3f3709cb7587d8d9e448080e0"},
		"ladder+40":               {"87d964024724db5b6f26377974cf5f136780b8706de9ab48ec3d8375c6e72022", "87d964024724db5b6f26377974cf5f136780b8706de9ab48ec3d8375c6e72022", 46, "626cc89dcc0371aaaccd40bdadcd82f587585bb5d8b1cf2b17ca38f8a2a68d18", "5f6cd1c246c9431a95c0158a2f68ae6a9771deced5381593875e853f8ff9933a"},
		"listing2.grail":          {"186017e2f2df0ec08d85c1f4237b616ecb16f5ae08e3b73028f8bd89ed5d29f0", "186017e2f2df0ec08d85c1f4237b616ecb16f5ae08e3b73028f8bd89ed5d29f0", 1, "11c1136cc8bc7d0cafab6ca3e79b926a5de7688b489c26e09b543af78dcc76f8", "d252de0a6a85141ff65294616a51498ab54392c6962c19413af8d98d8ae6580b"},
		"manifest-seed1-ladders2": {"39ffae9b822c1bb85dfb4b5dc38bda500cf5b1d8bd5b8aab70a7bfc16aca3112", "1249aec5b584c52762561a5bd27780db6da17a98dd849430525a43f6e6f552de", 214, "59ca1c91ecd5fda3564f8d82774655839d4c530d8753a0dbb8d3baccaa858b41", "5a5518210c40a4a11889e970d7be55153eaaa215f6146c4aeefda298b98d7d78"},
		"manifest-seed1-ladders4": {"60f981bf61dc265d9e4dd0c47b748af0959335c96fd7c3f6c7b3708a46ba8613", "3216f98544542f9000299a5f8dc639b5a1e49dd838d8b1a9cecd2ea84586f2f9", 226, "e332a48e81ff417cad1fb4184eedb3c94b363d1a6fc674f8838f4bdc78fdeb93", "a57bfeeef0b244419c8aba79867eb83393bfd009aab6abe894ae359ca9fd7b92"},
		"manifest-seed5-ladders2": {"31c4bd19d575a2beefdd026a462e7f0089e4414e8cefd510f438b317548fdd3f", "f30bd4eb30a8f1b39e9640364f5c9776face6654189673e1bbd77044f32b8d03", 214, "f4e0244b4aca3e49c622967ba0b139c6e9667f90c24aa7a1f19e8e0335c2c00e", "53a7e7414f015af3f880e7bba9ce9a8a9609d272f060ec0f4ad5aba228908840"},
		"manifest-seed5-ladders4": {"7744f93f4155b60f96826eca7aa0490df565e6768fb5938a3bcdbf8ea5511dae", "b0f45850805712de40ba1ccb5685968f673c42a6d6625554463fd85015d7e119", 226, "fa3612bdd48dc2a383c4534aa498c1c8d63c2093cb24551bd484c73c083cf5da", "9dcd4220953640014b5ff7a751cf85d32b3e17c6a5260cd2919d67c16a66bf9c"},
		"osc":                     {"3315effe2e3e81862ec684f41a3b85c62473aad2448c7eb0ef5ca6295ebd0856", "1539c641db334709ca28ed9a02ce6bf3ad602ae78c415f2d343538723c31dadc", 8, "bbe79e3f0dea83ec8092220db1c0b6faaacce5fd7440520a2ff0d3aeac0c0fe2", "1dbcced8a2944dd2ef73089c707b948d371989f1ff7ffe45fa8784ac1ec0c80b"},
		"sharded.json":            {"2e2052ccc35eeb1187af2be487063d0be0647cce6e3c463aee646fe076171807", "778cc2fd3c83d59fffc2620d96a483b2960a0a745c80d6dd17ef0e2c0d30a660", 2, "7c54e10def039847ca11ec1a0074e00e410df4b24ad5b2ac95e5eac0d151f243", "d335056884421db6032d1863dee03bbe401088da487ce2a07a7b14eddbc82b1e"},
		"temporal_clean.grail":    {"5f549f46b8d420e5ef065abecfc8de7012978e227768eecbc202981858c57a8b", "5f549f46b8d420e5ef065abecfc8de7012978e227768eecbc202981858c57a8b", 6, "565af9616b01bf0c69031a90651128a509bdda7d35b91c5a926afdafe599a3f1", "36dc82a6682ecc6934116d580ad1b0503a044a7d9991db23b23551c8f66a0fcf"},
		"temporal_clean.json":     {"c17f016658537e98826d1f5b88e14de9a5c579b67466cb1ebebfc792b2e4d1cd", "c17f016658537e98826d1f5b88e14de9a5c579b67466cb1ebebfc792b2e4d1cd", 8, "565af9616b01bf0c69031a90651128a509bdda7d35b91c5a926afdafe599a3f1", "36dc82a6682ecc6934116d580ad1b0503a044a7d9991db23b23551c8f66a0fcf"},
		"temporal_osc.grail":      {"e13f5a665dbf7b7e43da72d30fca7625301e2811eee0361866abefdfb8afbf55", "5a813816572b4be6f6796749444947774c3ac6cb60f36e2865c2c79b9e59dcab", 6, "bbe79e3f0dea83ec8092220db1c0b6faaacce5fd7440520a2ff0d3aeac0c0fe2", "1dbcced8a2944dd2ef73089c707b948d371989f1ff7ffe45fa8784ac1ec0c80b"},
		"vet_range.grail":         {"218d64f456fcf9edbed2362384f8836b42a5265783f5354668ea7ec5cff9051f", "218d64f456fcf9edbed2362384f8836b42a5265783f5354668ea7ec5cff9051f", 3, "a6845d72285ed6a17426eafdc5c471d0bb666268cf8124f4a19befd973d3871c", "8b018a53cb6f6e4dab6af326e4adf17907d29c7a889112d512380992cabbc507"},
		"witness.grail":           {"e88cc0290894e24f8accef3fe1f70fbd86721cce1c86184f1b5471f67ea18b9e", "70a8e150f823e1d43c2d75f5fcbd37b2eee632dcd61148189a2b16f84fcd678c", 4, "4ce711fc82c3e9288f1f95a24a3bade4c030b1bae65d3fde47f084449351a079", "f57f0e969eb751791b02e84e40a624f8fa78f65c4a6ceb45b325d44c61c61c76"},
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
