"""One sha256 line per result a refactor must keep, for REPO (default: this
script's repository): each named config's exit code and output files (JSON
without ``generated_at``), ``indptr``/``indices``/``data`` of the CASES
spectrum operators, and the ``src/`` line count.  Diff two trees' output of
``python tools/output_digest.py [REPO]``."""
import hashlib
import json
import sys
import tempfile
from pathlib import Path

# (algebra, N_max, n_max[, convention]); the convention defaults to antinormal
CASES = [("su2", 8, 5), ("su2", 12, None), ("su3", 5, None), ("so4", 5, None),
         ("so5", 4, None), ("so5", 5, None), ("su2", 8, 5, "normal"),
         ("su2", 8, 5, "weyl")]


def config_digest(path: Path, outdir: Path) -> list[str]:
    """Run one config through ``ymspec.cli.main`` into outdir; its lines."""
    from ymspec import cli
    command = json.loads(path.read_text())["command"]
    code = cli.main([command, "--config", str(path), "--out", str(outdir)])
    lines = [f"{path.name} exit {code}"]
    for out in sorted(p for p in outdir.rglob("*") if p.is_file()):
        data = out.read_bytes()
        if out.suffix == ".json":  # the same document, with no timestamp
            data = json.dumps({**json.loads(data), "generated_at": None},
                              sort_keys=True).encode()
        lines.append(f"{path.name} {out.relative_to(outdir)} "
                     f"{hashlib.sha256(data).hexdigest()}")
    return lines


def operator_digest(algebra, N_max, n_max, convention="antinormal"):
    from ymspec import spectrum
    model = spectrum.ModelSpec(algebra=algebra, N_max=N_max, n_max=n_max,
                               convention=convention)
    sym, weights = spectrum._cartan_model(model)
    ops = (("level", spectrum._level_operator(model, sym, weights)[0]),
           ("zero_weight", spectrum._zero_weight_operator(model, sym, weights)))
    return [f"{algebra} {N_max} {n_max} {convention} {name} {part} " +
            hashlib.sha256(getattr(op.matrix, part).tobytes()).hexdigest()
            for name, op in ops for part in ("indptr", "indices", "data")]


def main(root: Path) -> None:
    sys.path.insert(0, str(root / "src"))
    for path in sorted((root / "configs").glob("*.json")):
        with tempfile.TemporaryDirectory() as tmp:
            print(*config_digest(path, Path(tmp)), sep="\n")
    for case in CASES:
        print(*operator_digest(*case), sep="\n")
    src = (root / "src" / "ymspec").glob("*.py")
    print("src lines", sum(len(p.read_text().splitlines()) for p in src))


if __name__ == "__main__":
    main(Path(sys.argv[1]).resolve() if len(sys.argv) > 1
         else Path(__file__).resolve().parents[1])
