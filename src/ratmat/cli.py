"""Command-line harness: `xp run`, `xp poles`, `xp bound`.

run    executes the randomized bound-vs-error experiment from a JSON config;
poles  prints the pole specification derived from the config's rational fit;
bound  evaluates the certified reduction-error bound on a user system given
       as JSON matrices (see the repo matrix schema in linalg).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bounds import BoundResult, check_query
from .experiment import ExperimentConfig, derive_poles, run_experiment
from .linalg import (as_square_matrix, blas_pin, factorize, matrix_from_json,
                     vector_from_json)
from .rom import FinitePole, PoleSpec, arnoldi_error_bound, build_krylov_basis, reduce


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _read_matrix(path: str, name: str, convert):
    """The matrix file at path through convert (matrix_from_json or
    vector_from_json), with the message json's reading gives on a refusal.

    orjson decodes the bytes, 3-4x faster than json on a 64 x 64 A.  A file
    that orjson or convert refuses is read again by json, and so is one with
    an entry of magnitude 2^63 or more, since orjson returns an integer
    literal beyond 64 bits as a float: every matrix json reads, and every
    refusal, stays json's to the bit.  The config and the pole spec stay on
    json, where that float would change a seed or a multiplicity.
    """
    import orjson  # here only: `xp run` and `xp poles` read no matrix file

    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        m = convert(orjson.loads(raw), name)
        if not np.any(np.abs(m.view(np.float64)) >= 2.0 ** 63):
            return m
    except ValueError:  # orjson.JSONDecodeError is one
        pass
    return convert(_load_json(path), name)


def _config_from_file(path: str) -> ExperimentConfig:
    return ExperimentConfig.from_json(_load_json(path))


def run_cmd(args) -> int:
    config = _config_from_file(args.config)
    summary = run_experiment(config)
    print(json.dumps(summary, indent=2))
    return 0


def poles_cmd(args) -> int:
    config = _config_from_file(args.config)
    poles = derive_poles(config)
    spec = PoleSpec(1, tuple(FinitePole(complex(p)) for p in poles))
    print(json.dumps(spec.to_json(), indent=2))
    return 0


def bound_cmd(args) -> int:
    A = as_square_matrix(_read_matrix(args.A, "A", matrix_from_json), "A")
    b = _read_matrix(args.b, "b", vector_from_json)
    d = _read_matrix(args.d, "d", vector_from_json) if args.d else None
    spec = PoleSpec.from_json(_load_json(args.poles))
    for name, x in (("b", b), ("d", d)):
        if x is not None and x.size != A.shape[0]:
            raise ValueError(f"{name} has length {x.size}, A has order {A.shape[0]}")
    # before A is factorized, for every b; the spec's vector count, at most
    # the order once check_basis passes, bounds the reduced order and the nodes
    spec.check_basis(A.shape[0], d)
    check_query(args.t, args.s_samples, args.mu_samples, A.shape[0],
                spec.denominator().degree + 1, spec.total())

    if np.linalg.norm(b) == 0.0:  # e1 is 0
        zero = BoundResult(0.0, 0.0, 0j, args.s_samples, args.mu_samples)
        print(json.dumps(zero.to_json()))
        return 0

    # the BLAS threads follow the order as a trial's do, so the bits ignore
    # the cores; A is factorized and c = S^-1 b solved once for all three
    # steps, and the LU of S is freed after reduce's solve, the last one
    with blas_pin(A.shape[0]):
        fac = factorize(A)
        c = fac.solve(b)
        V, _ = build_krylov_basis(fac, b, spec, d=d, c=c)
        model = reduce(fac, b, V, d=d, spec=spec)
        fac.drop_lu()
        res = arnoldi_error_bound(model, fac, b, d=d, t=args.t,
                                  s_samples=args.s_samples,
                                  mu_samples=args.mu_samples, c=c)
    print(json.dumps(res.to_json()))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="xp",
        description="Rational-approximation error bounds and order reduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the randomized experiment")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.set_defaults(func=run_cmd)

    p_poles = sub.add_parser("poles", help="derive reduction poles from the config")
    p_poles.add_argument("--config", required=True, help="JSON config file")
    p_poles.set_defaults(func=poles_cmd)

    p_bound = sub.add_parser("bound", help="error bound for a supplied system")
    p_bound.add_argument("--A", required=True, help="matrix JSON file")
    p_bound.add_argument("--b", required=True, help="input vector JSON file")
    p_bound.add_argument("--d", help="output vector JSON file (a spec with chi needs it)")
    p_bound.add_argument("--poles", required=True, help="pole spec JSON file")
    p_bound.add_argument("--t", type=float, default=1.0, help="time parameter")
    p_bound.add_argument("--s-samples", type=int, default=11)
    p_bound.add_argument("--mu-samples", type=int, default=50)
    p_bound.set_defaults(func=bound_cmd)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
