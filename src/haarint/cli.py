"""Command-line front end: every engine behind one reproducible binary.

Output is machine-readable JSON by default (CSV flattens the same
records for table diffs).  Exact fields print as p/q strings so golden
files stay lossless; every stochastic record embeds the seed and sample
count that produced it, and echoes --threads, which changes no result.
Exit codes: 0 success, 2 usage error, 3 cost-gate refusal, 4 internal
assertion failure.  main(argv) answers one request in-process and
returns that code; a request that names a command is parsed by that
command's parser alone (command_parser), and the full parser
(build_parser) answers help, typos, a missing command or arguments left
over.  The JSON is json.dumps(indent=2)'s text, written in one pass.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from . import entropy, irreps, moments, sampling, su2, tableaux
from .moments import UnsupportedIntegralError
from .tensors import CostGateError

SEED_ENV = "HAARINT_SEED"

EXIT_USAGE = 2
EXIT_COST = 3
EXIT_ASSERT = 4

# array entries one request may build or print: the matrix entries of a
# `sample` run (each as two JSON floats), the tableau entries a `tableaux`
# listing enumerates, and the nodes^2 companion-matrix entries of the `su2`
# quadrature
SAMPLE_CAP = 10 ** 6

# bits of the products a `tableaux` gate may multiply out for the module
# dimension (tableaux.gl_dimension_bits): about 0.4 s on a 2-core host
DIMENSION_BITS = 2 ** 20


def _decimal_digits(k: int) -> int:
    """Decimal digits of |k|, without converting it to a string."""
    k = abs(k)
    d = max(1, int(k.bit_length() * 0.30102999566398120))  # floor(log10 2^b)
    return d + 1 if k >= 10 ** d else d


def _check_digits(what: str, x: Fraction | int):
    """Refuse a value whose numerator or denominator has more decimal
    digits than str() may print (sys.get_int_max_str_digits, 0: no limit)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 3.10.7+
    digits = max(_decimal_digits(x.numerator), _decimal_digits(x.denominator))
    if limit and digits > limit:
        raise CostGateError(
            f"{what}: {digits} decimal digits; str() prints at most {limit}")


def _flatten(value, prefix, out):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(v, f"{prefix}.{i}", out)
    else:
        out[prefix] = value


def _json(value, indent: str) -> str:
    """json.dumps(value, indent=2)'s text for a value at this indent; the
    records' keys are str, and any other key is a TypeError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [int.__repr__(v) if type(v) is int else _json(v, inner) for v in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner)
                 for k, v in value.items()]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    raise TypeError(f"Object of type {value.__class__.__name__} "
                    f"is not JSON serializable")


def _emit(records: list, fmt: str):
    if fmt == "json":
        print(_json(records[0] if len(records) == 1 else records, ""))
        return
    rows = []
    columns: dict = {}  # the keys in first-seen order
    for rec in records:
        flat: dict = {}
        _flatten(rec, "", flat)
        columns.update(dict.fromkeys(flat))
        rows.append(flat)
    writer = csv.writer(sys.stdout)
    writer.writerow(columns)
    for flat in rows:
        writer.writerow([flat.get(c, "") for c in columns])


def _resolve_seed(args, needed: bool):
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{SEED_ENV} must be an integer, got {env!r}")
    if needed:
        raise ValueError(
            f"stochastic output needs --seed (or {SEED_ENV} in the "
            f"environment) for reproducibility")
    return None


def _common(record: dict, args, seed=None) -> dict:
    record["seed"] = seed
    record["threads"] = args.threads
    return record


def _parse_shape(text: str):
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"bad shape string {text!r}; expected like 2,1")


def _conj_mark(mark: str) -> bool:
    """'+' is a plain factor, '-' a conjugated one."""
    if mark not in ("+", "-"):
        raise ValueError(f"conjugation mark must be + or -, got {mark!r}")
    return mark == "-"


def _inline_factors(text: str, arity: int, usage: str) -> list:
    """Inline factors separated by ';', each `arity` comma-separated ints
    and an optional conjugation mark: one (ints..., conj) tuple per factor."""
    out = []
    for part in text.split(";"):
        bits = [b.strip() for b in part.split(",")]
        if len(bits) not in (arity, arity + 1):
            raise ValueError(f"bad factor {part!r}; expected {usage}")
        conj = len(bits) > arity and _conj_mark(bits[arity])
        out.append((*map(int, bits[:arity]), conj))
    return out


def _parse_factors(text: str):
    """Inline monomial factors: 'i,j,+;i,j,-' with '+' plain, '-' bar."""
    return [moments.Factor(*f) for f in _inline_factors(text, 2, "i,j or i,j,+/-")]


# ---------------------------------------------------------------------------
# subcommands

def _gate_tableaux(group: str, shape, n: int):
    """Refuse, before any enumeration, a listing of more than SAMPLE_CAP
    tableau entries: the semistandard fillings over the letters, whose
    number is the GL dimension, of weight(shape) entries each; O and Sp
    filter the fillings of their N (Sp: 2N) letters.  Where that dimension
    costs more than DIMENSION_BITS to multiply out, the shape, less its
    full columns, is not empty, so the module is not a power of the
    determinant and has at least as many dimensions as letters: that
    bound refuses.  The Sp walk yields only the sp_dimension fillings, so
    where the GL count refuses, that count decides, unless a module of at
    least 2N dimensions is refused already or its numerator, weight(shape)
    factors of at most 2N + 2 weight(shape), takes more than DIMENSION_BITS.
    A count str() cannot print is refused by its digits."""
    letters = sampling.dimension(group, n)
    m = tableaux.weight(shape)
    low = letters * m
    if low > SAMPLE_CAP and tableaux.gl_dimension_bits(shape, letters) > DIMENSION_BITS:
        _check_digits("tableaux: tableau entries", low)
        raise CostGateError(
            f"tableaux: at least {letters} x {m} = {low} tableau entries "
            f"(the exact count takes over {DIMENSION_BITS} bits); capped at {SAMPLE_CAP}")
    count = tableaux.gl_dimension(shape, letters)
    if (group == "Sp" and count * m > SAMPLE_CAP >= low
            and m * (letters + 2 * m).bit_length() <= DIMENSION_BITS):
        count = tableaux.sp_dimension(shape, n)
    if count * m > SAMPLE_CAP:
        _check_digits("tableaux: tableau entries", count * m)
    sampling.check_cost("tableaux", count, m, SAMPLE_CAP, "tableau entries")
    sampling.check_cost("tableaux", 1, letters, SAMPLE_CAP, "alphabet letters")


def cmd_tableaux(args) -> list:
    shape = tableaux.check_group_shape(args.group, _parse_shape(args.shape), args.N)
    _gate_tableaux(args.group, shape, args.N)
    if args.group == "GL":
        listing = tableaux.enumerate_gl_tableaux(shape, args.N)
    elif args.group == "O":
        listing = tableaux.enumerate_o_tableaux(shape, args.N)
    elif args.group == "Sp":
        listing = tableaux.enumerate_sp_tableaux(shape, args.N)
    else:
        raise ValueError(f"unknown tableau group {args.group!r}")
    record = _common({
        "command": "tableaux", "group": args.group, "N": args.N,
        "shape": list(shape), "count": len(listing),
        "tableaux": [t.rows for t in listing],
    }, args)
    return [record]


def _load_spec_file(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"spec file {path} must hold a JSON object")
    return data


def _integral_record(args, spec, n, kind):
    record = {"command": "integral", "kind": kind,
              "group": spec.group, "N": n, "mode": args.mode}
    want = {"exact", "leading", "mc"} if args.mode == "all" else {args.mode}
    seed = _resolve_seed(args, needed="mc" in want)
    if kind == "irrep":
        record["factors"] = spec.to_dict()["factors"]
        exact, leading, mc = (irreps.integrate_irrep_exact, irreps.asymptotic_irrep,
                              irreps.integrate_irrep_mc)
        if {"exact", "leading"} & want:
            # every route reads weight spaces (irreps._weight_space), which
            # end the request with an assertion if a filling is dropped; the
            # count is printed where the exact or leading route runs
            record["dropped_basis_vectors"] = 0
    else:
        record["factors"] = spec.to_dict(n)["factors"]
        exact, leading, mc = (functools.partial(route, n=n) for route in (
            moments.exact_integral, moments.asymptotic_leading,
            moments.integrate_monomial_mc))
    if "exact" in want:
        record["exact"] = str(exact(spec))
    if "leading" in want:
        record["leading"] = str(leading(spec))
    if "mc" in want:
        record["mc"] = mc(spec, samples=args.samples, seed=seed).to_json_dict()
    record["samples"] = args.samples if "mc" in want else None
    return [_common(record, args, seed)]


def cmd_integral(args) -> list:
    if args.spec:
        data = _load_spec_file(args.spec)
        factors = moments._spec_factors(data)
        irrep = sum("lambda" in f for f in factors)
        if irrep:
            if irrep < len(factors):
                raise ValueError("spec factors mix irrep entries (with 'lambda') "
                                 "and monomial entries (without)")
            spec = irreps.RepMatrixElementSpec.from_dict(data)
            return _integral_record(args, spec, spec.n, "irrep")
        spec, n = moments.MonomialSpec.from_dict(data)
    elif args.group is None or args.N is None or args.factors is None:
        raise ValueError("inline mode needs --group, --N, and --factors")
    else:
        spec, n = moments.MonomialSpec(args.group, _parse_factors(args.factors)), args.N
    spec.validate(n)  # every mode: the sampler would wrap a negative index
    return _integral_record(args, spec, n, "monomial")


def cmd_su2(args) -> list:
    if args.spec:
        spec = su2.Su2MonomialSpec.from_dict(_load_spec_file(args.spec))
    elif args.factors:
        spec = su2.Su2MonomialSpec([su2.Su2Factor(*f) for f in _inline_factors(
            args.factors, 3, "twice_j,twice_mp,twice_m[,+/-]")])
    else:
        raise ValueError("need --spec or --factors")
    sampling.check_cost("su2 quadrature", args.nodes, args.nodes, SAMPLE_CAP,
                        "companion-matrix entries")
    closed = su2.su2_integral_closed(spec)
    try:
        quad = su2.su2_integral_quadrature(spec, nodes=args.nodes)
    except CostGateError:
        # the float-range gate refused a beta profile the phases kill: the
        # closed value, 0, stands without its cross-check
        if not any(su2._magnetic_sums(spec.factors)):
            raise
        quad = None
    record = _common({
        "command": "su2", "factors": spec.to_dict()["factors"],
        "nodes": args.nodes, "closed": closed, "quadrature": quad,
        "difference": None if quad is None else abs(closed - quad),
    }, args)
    return [record]


def _int_list(text: str):
    return [int(p) for p in text.split(",")]


def cmd_entropy(args) -> list:
    seed = _resolve_seed(args, needed=True)
    records = []
    pairs = [(m, n) for m in _int_list(args.m) for n in _int_list(args.n)
             if m <= n]
    if not pairs:
        raise ValueError("no (m, n) pairs with m <= n in the requested grid")
    sampling.check_cost("Monte Carlo entropy grid", args.samples,
                        sum(1 + m * n for m, n in pairs), sampling.MC_CAP)
    exact = []  # every exact value is computed and checked before any draw
    for m, n in pairs:
        x = entropy.page_entropy_fraction(m, n)
        _check_digits(f"exact Page value for (m, n) = ({m}, {n})", x)
        exact.append(x)
    for i, ((m, n), x) in enumerate(zip(pairs, exact)):
        est = entropy.mc_average_entropy(m, n, samples=args.samples,
                                         seed=seed + i)
        records.append(_common({
            "command": "entropy", "m": m, "n": n,
            "exact": str(x), "exact_float": float(x),
            "approx": entropy.page_entropy_approx(m, n),
            "mc": est.to_json_dict(), "samples": args.samples,
        }, args, seed))
    return records


def cmd_sample(args) -> list:
    if args.count < 0:
        raise ValueError(f"--count must be at least 0, got {args.count}")
    if args.N < 1:
        raise ValueError(f"--N must be at least 1, got {args.N}")
    seed = _resolve_seed(args, needed=True)
    d = sampling.dimension(args.group, args.N)
    sampling.check_cost("sample", args.count, d * d, SAMPLE_CAP)
    matrices = []
    for i in range(args.count):
        s = sampling.sample_group(args.group, args.N,
                                  sampling.RngStream(seed, i))
        det = complex(np.linalg.det(s.matrix))
        matrices.append({
            "index": i,
            "det_re": det.real, "det_im": det.imag,
            "matrix_re": s.matrix.real.tolist(),
            "matrix_im": s.matrix.imag.tolist(),
        })
    record = _common({
        "command": "sample", "group": args.group, "N": args.N,
        "count": args.count, "matrices": matrices,
    }, args, seed)
    return [record]


# ---------------------------------------------------------------------------
# wiring

def _tableaux_arguments(p):
    p.add_argument("--shape", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--group", choices=("GL", "O", "Sp"), default="GL")


def _integral_arguments(p):
    p.add_argument("--spec", help="JSON spec file (lambda keys pick the "
                                  "representation path)")
    p.add_argument("--group", choices=("U", "SU", "O", "SO", "Sp"))
    p.add_argument("--N", type=int)
    p.add_argument("--factors", help="inline 'i,j,+;i,j,-' (+ plain, - bar)")
    p.add_argument("--mode", choices=("exact", "leading", "mc", "all"),
                   default="exact")


def _su2_arguments(p):
    p.add_argument("--spec")
    p.add_argument("--factors",
                   help="inline 'twice_j,twice_mp,twice_m,+/-;...'")
    p.add_argument("--nodes", type=int, default=32)


def _entropy_arguments(p):
    p.add_argument("--m", required=True, help="comma list of left dimensions")
    p.add_argument("--n", required=True, help="comma list of right dimensions")


def _sample_arguments(p):
    p.add_argument("--group", choices=("U", "SU", "O", "SO", "Sp"),
                   required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--count", type=int, default=1)


# subcommand name -> (help text, the function adding its arguments, its cmd_*)
COMMANDS = {
    "tableaux": ("enumerate admissible fillings of a shape",
                 _tableaux_arguments, cmd_tableaux),
    "integral": ("monomial or matrix-element Haar integral",
                 _integral_arguments, cmd_integral),
    "su2": ("closed-form spin average vs quadrature", _su2_arguments, cmd_su2),
    "entropy": ("average marginal entropy: exact, approx, MC",
                _entropy_arguments, cmd_entropy),
    "sample": ("draw Haar-distributed matrices", _sample_arguments, cmd_sample),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give `parser` the common options, then command `name`'s own."""
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=10000)
    parser.add_argument("--threads", type=int, default=1,
                        help="echoed in each record; never changes results")
    _help, add_arguments, func = COMMANDS[name]
    add_arguments(parser)
    parser.set_defaults(func=func, command=name)
    return parser


def command_parser(name: str) -> argparse.ArgumentParser:
    """Command `name`'s parser alone: the one, with its errors, help and
    exit codes, that build_parser() runs on the arguments after `name`."""
    return _add_command(argparse.ArgumentParser(prog=f"haarint {name}"), name)


def build_parser() -> argparse.ArgumentParser:
    """The full `haarint` parser, with every subcommand: 6 ArgumentParsers
    where command_parser builds 1.  It answers help, typos, a missing
    command and arguments left over after a command's own."""
    parser = argparse.ArgumentParser(
        prog="haarint",
        description="Exact and asymptotic Haar integrals over the "
                    "classical compact groups")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *_) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv=None) -> int:
    """Answer one request; returns its exit code (argv None: sys.argv[1:])."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args, rest = None, argv
        if argv and argv[0] in COMMANDS:
            args, rest = command_parser(argv[0]).parse_known_args(argv[1:])
        if args is None or rest:
            # the full parser prints the top-level "unrecognized arguments"
            args = build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        records = args.func(args)
    except CostGateError as e:
        print(f"cost gate: {e}", file=sys.stderr)
        return EXIT_COST
    except UnsupportedIntegralError as e:
        print(f"unsupported: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, TypeError, OSError,
            json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as e:
        print(f"internal assertion: {e}", file=sys.stderr)
        return EXIT_ASSERT
    _emit(records, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
