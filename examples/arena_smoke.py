"""Named-arena round-trip smoke test: an arena checkpoint must replay exactly.

Builds an engine over a named coverage arena file, checkpoints it mid-run,
resumes from the checkpoint — which records the arena by reference (path +
content digest) instead of copying its columns, and reattaches the file with
the digest verified — and diffs the completed history against a straight run
over the default temporary arena. Exits non-zero on any divergence. CI runs
this to keep the reference encoding exercised; ``examples/resume_smoke.py``
covers the inline encoding of temporary arenas.
"""

from __future__ import annotations

import copy
import sys
import tempfile
from pathlib import Path

from repro import DarwinEngine

SPEC = {
    "dataset": {"name": "directions", "num_sentences": 500, "seed": 3,
                "parse_trees": False},
    "config": {"budget": 16, "traversal": "hybrid", "num_candidates": 400,
               "grammars": ["tokensregex"], "oracle": "ground_truth",
               "classifier": {"model": "logistic", "epochs": 12}},
    "seeds": {"rule_texts": ["best way to get to"]},
}


def main() -> int:
    straight = DarwinEngine.from_config(SPEC).run()
    print(f"straight run: {straight.queries_used} questions, "
          f"{len(straight.rule_set)} rules, recall {straight.final_recall:.3f}")

    with tempfile.TemporaryDirectory() as tmp:
        arena_path = str(Path(tmp) / "arena_smoke.arena")
        spec = copy.deepcopy(SPEC)
        spec["config"]["index"] = {"arena_path": arena_path}
        checkpoint = str(Path(tmp) / "arena_smoke.npz")

        interrupted = DarwinEngine.from_config(spec)
        interrupted.run(budget=8)
        interrupted.save(checkpoint)
        print(f"named-arena engine checkpointed after "
              f"{interrupted.questions_asked} questions (arena: {arena_path})")
        reference = DarwinEngine.describe_checkpoint(checkpoint)["arena"]
        if not reference or reference["path"] != arena_path:
            print(f"FAIL: checkpoint does not reference the arena: {reference}")
            return 1

        resumed = DarwinEngine.load(checkpoint)
        if resumed.darwin.index.store.arena.path != arena_path:
            print("FAIL: resumed engine did not reattach the named arena")
            return 1
        arena_result = resumed.run(budget=16)
    print(f"arena resumed: {arena_result.queries_used} questions, "
          f"{len(arena_result.rule_set)} rules, "
          f"recall {arena_result.final_recall:.3f}")

    if arena_result.history != straight.history:
        for straight_rec, arena_rec in zip(straight.history, arena_result.history):
            marker = "  " if straight_rec == arena_rec else "!!"
            print(f"{marker} q{straight_rec.question_number}: "
                  f"{straight_rec.rule!r} vs {arena_rec.rule!r}")
        print("FAIL: named-arena resumed history diverged from the straight run")
        return 1
    print("OK: named-arena checkpoint/resume history is identical to the "
          "straight run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
