"""One benchmark set-up, run in a fresh interpreter so its wall time is
what a user pays before the first job: importing ``shadowcodes``,
building every field the roster uses, and writing the input
descriptors with ``construct``.

Usage: python3 bench/setup_inputs.py PLAN_JSON INPUT_DIR

PLAN_JSON holds ``{"fields": [q, ...], "inputs": [{"file", "argv",
"tamper_from"}, ...]}``.  The last stdout line is a JSON object with
the time of each phase in seconds.
"""

import json
import sys
import time
from pathlib import Path

t_start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import shadowcodes  # noqa: E402,F401
from shadowcodes.cli import main as cli_main  # noqa: E402
from shadowcodes.field import field_of_order  # noqa: E402


def flip_one_bit(path_in: Path, path_out: Path) -> None:
    """Copy a descriptor with the lowest bit of its first G row flipped."""
    desc = json.loads(path_in.read_text())
    row = desc["G"][0]
    desc["G"][0] = format(int(row, 16) ^ 1, f"0{len(row)}x")
    path_out.write_text(json.dumps(desc, indent=2) + "\n")


def main(plan_text: str, input_dir: str) -> int:
    t_import = time.perf_counter()
    plan = json.loads(plan_text)
    for q in plan["fields"]:
        field_of_order(q)
    t_fields = time.perf_counter()
    out = Path(input_dir)
    out.mkdir(parents=True, exist_ok=True)
    for item in plan["inputs"]:
        target = out / item["file"]
        if item.get("tamper_from"):
            flip_one_bit(out / item["tamper_from"], target)
        elif cli_main(list(item["argv"]) + ["--out", str(target)]) != 0:
            print(f"set-up: {' '.join(item['argv'])} failed", file=sys.stderr)
            return 2
    t_inputs = time.perf_counter()
    print(json.dumps({
        "import_s": t_import - t_start,
        "fields_s": t_fields - t_import,
        "inputs_s": t_inputs - t_fields,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
