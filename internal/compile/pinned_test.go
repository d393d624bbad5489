package compile

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"guardrails/benchmark/gen"
	"guardrails/internal/spec"
)

// pinnedSources is every guardrail source TestProgramsPinned digests:
// each grailcheck fixture spec, the check_manifest deployment at seeds 1
// and 5 with four ladders (all files of one manifest in file order), and
// the fire_wide benchmark's main and watcher guardrails.
func pinnedSources(t *testing.T) map[string][]string {
	t.Helper()
	srcs := make(map[string][]string)
	paths, err := filepath.Glob("../../cmd/grailcheck/testdata/*.grail")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixture specs: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(path)] = []string{string(data)}
	}
	for _, seed := range []int64{1, 5} {
		name := fmt.Sprintf("manifest-seed%d-ladders4", seed)
		for _, f := range gen.BuildManifest(seed, 4).Files {
			srcs[name] = append(srcs[name], f.Source)
		}
	}
	wide := gen.Wide(1, 64, 0.2)
	srcs["fire_wide"] = []string{wide.Source}
	srcs["fire_wide watcher"] = []string{wide.WatcherSource}
	return srcs
}

// TestProgramsPinned holds, per source and optimization level, the
// SHA-256 over every guardrail that compiles of its vm.Encode image
// followed by its Meta.OptLevel, Meta.PreOptInsns and Meta.PostOptInsns.
// A guardrail the compiler rejects contributes its name and nothing
// else. TestReportsPinned digests the -O1 images only; this test also
// pins the -O0 baseline, which is the differential gate's subject and
// the register-file fallback, so a codegen or IR-pass change that
// claims to emit the same bytecode must leave it green unedited. The
// values were recorded at commit 2335e63, while codegen still emitted
// through a label-patching vm.Builder and CSE keyed on strings.
func TestProgramsPinned(t *testing.T) {
	pinned := map[string][2]string{
		"aggregates.grail":        {"6dfa7051c8adfb7a147e28de0a9f5d89123590da616827866cb3a0ffb3ddeb5e", "a64ee441de3200a1a2cc87d46d983892009413b200727739e8f544baea5b1f4e"},
		"clean_core.grail":        {"04c33c76a65d064abde0fad780984e59f7b2ae3d7e4e9f1b1c2c75cd3b2d9806", "4252444e30a07060baba65d038933adc556ffca8ad9d6e0d9eaeba4f0999c2df"},
		"clean_hook.grail":        {"a5ceb0dd54bc39fb05f1fb986f0027fea6840b1e41b280e5078b57037d9720b7", "051e1625ffe89f92ae0926988454c6cf6149eb6a3ff861104f6e1a57d66e2e21"},
		"conflict_a.grail":        {"40da07a79f265eb07391d7a9f269ccdbefa0566b4e7896c685ad7baa7090c6a8", "9f7c5a15d5bd6d15b0844cec968ef6ac2a8ec79c7ec776efc63e09d095d725cc"},
		"conflict_b.grail":        {"d82db0da691a0b94024eaed708f842b5652d537a7bfa8c2af67ad592ac3fe369", "3ea2bc26e3afd98f4ab0cf18fc9d30cc9fe89a97676572a1d5a6780036529322"},
		"deep_witness.grail":      {"6bb8810651052cafd10c4f8bbc3fb62983166926aaa8d998b28c9075c209122b", "4c1c2bdafb0c0d9fd9b982ba7b8e3af2a2021e035d736c376ff0ced9aa99ad3d"},
		"feedback.grail":          {"19ac1826f136215973afbf349dc6f024e63964df1ddf71b57bb171e082454942", "d745385df0a9f77ad77caf5095f7012fc2a9c05565f869624dd967893187c6b6"},
		"fire_wide watcher":       {"f93416aa95afae43bd8f0cbc933dd3a98139e6f904a385332003564f1b0e16dc", "2ad949a2ec9351d8b48b31862e6292419a1d2f6b93ca4565da8c921f5ad9b216"},
		"fire_wide":               {"8963a7f88368735dd99bbb917c73651c38badf4f1e74d23d1eb543cb20b913bb", "e33582ed74297835a040fcb37732efd70caf86e7efb3f366d56481a36fb0d6d7"},
		"listing2.grail":          {"c30f704ed578d0d3fef6e3ef0d101225798ec10c7e44370c97f5276667d12f27", "e0baef1f3ff923275cf361f192064b924a42482d98fbbe00b8d739120d1d23ac"},
		"manifest-seed1-ladders4": {"c4e1344b066f9a0d38670a4433771b2176dbe9f57c9c8719a6ff9cba77a9f504", "b4574a6a4f7c99a1869e51a90b501804aca327d5ecbe525681318f60e3bbfab0"},
		"manifest-seed5-ladders4": {"ec79635461de57dc897e20313c61aadf918120a7ac7e90fae99b84f05fa4989b", "0ddeefd126dae6f36178fe013111b952c5e51e588250aa46abc362c8c24b9d7d"},
		"temporal_clean.grail":    {"32be63fc8f95358a9d11ac107ab39799d8fc31c1194a5d4cc9b1903a946ef06d", "61c7f236cd041e4476aee23e2ea90204168e0665d505a0cd5a798314406f5bcb"},
		"temporal_osc.grail":      {"18f5436f58c6a0e97464ab0dc88f8a30bc8eb980939d82f96392b17b5505c51b", "c6c85e4365abb43d6a2d765e1a8a7dd5231c9b1b8f550caff10fdcc94d45d4a4"},
		"vet_diags.grail":         {"13ffe2c0d0aab13a257d9ea81776a713ca115a55400b11c93d0dea279b91280b", "1eabb8c9bc6bf6a6872fbda8efc3a45e94ea1d6f151275375e03d854a25e605e"},
		"vet_range.grail":         {"7143316cbc86d5bb3ba9f04e33594140c20e956aaff8ec41f3ab3bd9c49debe9", "a29bf52297d8fd07ef39419163f9e2530cecfd5c4fdf22d60bf5764064d18a80"},
		"vet_witness.grail":       {"3ca64e910e6bd0b43aed3499265834ab4e6004188069946366313e884035c560", "e2ab094da1f3a15fc981db309e4b0dc054da67ecb8aebe6cf22ac6d774721d05"},
		"witness.grail":           {"630f78417ceef0079c593d6c1f2e7ba22f17a76cdde252828c3628493fce81e6", "cad67c9e3380e6160720411b7436a699840fa920412d6a46e0336fd0efe9dcd0"},
		"witness_order.grail":     {"5067d71fa7dbb5b05beadc8def6e026ae1efef86851a0a841f7e1f1ba62e1a0b", "2aafcfa3aab37cf5559d9f2848e0454b62e15942570db7e1e50dbb85a2162345"},
	}
	got := map[string][2]string{}
	for name, texts := range pinnedSources(t) {
		var pair [2]string
		for level := 0; level <= 1; level++ {
			h := sha256.New()
			for _, text := range texts {
				f, err := spec.ParseChecked(text)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, g := range f.Guardrails {
					c, err := GuardrailWith(g, Options{Level: level})
					if err != nil {
						fmt.Fprintf(h, "rejected %s\n", g.Name)
						continue
					}
					p := c.Program
					if err := p.Encode(h); err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(h, "O%d pre=%d post=%d\n", p.Meta.OptLevel, p.Meta.PreOptInsns, p.Meta.PostOptInsns)
				}
			}
			pair[level] = hex.EncodeToString(h.Sum(nil))
		}
		got[name] = pair
	}
	for name, pair := range got {
		want, ok := pinned[name]
		if !ok {
			t.Errorf("%q: not pinned; -O0 %s, -O1 %s", name, pair[0], pair[1])
			continue
		}
		for level := 0; level <= 1; level++ {
			if pair[level] != want[level] {
				t.Errorf("%s -O%d: programs digest %s, pinned %s", name, level, pair[level], want[level])
			}
		}
	}
	for name := range pinned {
		if _, ok := got[name]; !ok {
			t.Errorf("%q: pinned but no longer compiled", name)
		}
	}
}
