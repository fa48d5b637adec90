"""Command-line interface.

Subcommands:

* ``describe`` - print a pipeline's metadata (output spec, ratio, block
  size, latencies, receptive field and per-step map) plus its layer tree;
* ``run``      - execute a pipeline layer-wise over an SLS1 input;
* ``stream``   - execute step-wise in blocks, with the flush/trim protocol;
* ``diff``     - run both and compare; exit 0 iff they agree;
* ``verify``   - run the contract battery; exit 0 iff no check fails.

Exit codes: 0 success, 1 contract/diff failure, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import params as params_lib
from .errors import (
    BlockSizeError,
    MissingConstantError,
    NotSteppableError,
    PipelineError,
    ShapeMismatchError,
    SpecMismatchError,
    SpecParseError,
)
from .pipeline import (
    build,
    load_manifest,
    load_spec_file,
    parse_channel_spec,
)
from .receptive_field import format_rf, format_rf_map
from .sequence import Sequence, load_sequence, save_sequence
from .streaming import _resolve_block, step_by_step
from .verify import TOLERANCE, HarnessConfig, compare, verify_contract

USAGE_ERROR = 2
CONTRACT_ERROR = 1


def _load_pipeline(args):
    spec, file_input_spec = load_spec_file(args.spec)
    if getattr(args, "input_spec", None):
        input_spec = parse_channel_spec(args.input_spec)
    elif file_input_spec is not None:
        input_spec = file_input_spec
    else:
        raise PipelineError(
            f"{args.spec}: no input spec; add 'input_spec:' to the file or pass --input-spec"
        )
    return spec, input_spec


def _build_from_manifest(args, manifest):
    spec, _ = load_spec_file(args.spec)
    x = load_sequence(manifest.input)
    archive = params_lib.load_archive(manifest.params) if manifest.params else None
    layer = build(spec, x.channel_spec, seed=manifest.seed, archive=archive)
    constants = {
        key: load_sequence(path) for key, path in manifest.constants.items()
    }
    return layer, x, constants or None


def _print_layer_tree(layer, indent=0, out=sys.stdout):
    pad = "  " * indent
    print(f"{pad}{type(layer).__name__.lower()} {layer.name}", file=out)
    for child in layer.children:
        _print_layer_tree(child, indent + 1, out=out)


def cmd_describe(args) -> int:
    spec, input_spec = _load_pipeline(args)
    layer = build(spec, input_spec, seed=args.seed)
    props = layer.properties
    ratio = props.output_ratio
    print(f"pipeline: {layer.name}")
    print(f"input_spec: {input_spec}")
    print(f"output_spec: {layer.get_output_spec(input_spec)}")
    print(f"output_ratio: {ratio.numerator}/{ratio.denominator}")
    print(f"block_size: {props.block_size}")
    print(f"input_latency: {props.input_latency}")
    print(f"output_latency: {props.output_latency}")
    print(f"receptive_field: {format_rf(props.receptive_field)}")
    print(f"receptive_field_per_step: {format_rf_map(props.receptive_field_per_step)}")
    print(f"steppable: {'yes' if props.supports_step else 'no'}")
    print("layers:")
    _print_layer_tree(layer, indent=1)
    return 0


def _write_output(args, manifest, y: Sequence, mode: str) -> None:
    output = args.output or manifest.output
    if not output:
        raise PipelineError("no output path; set 'output:' in the manifest or pass --output")
    save_sequence(output, y)
    meta = {
        "spec": args.spec,
        "mode": mode,
        "seed": manifest.seed,
        "params": manifest.params,
        "training": manifest.training,
        "input": manifest.input,
        "output_shape": list(y.shape),
    }
    with open(output + ".meta.json", "w", encoding="utf-8") as fp:
        json.dump(meta, fp, indent=2)
    print(f"wrote {output} (shape {tuple(y.shape)})")


def cmd_run(args) -> int:
    manifest = load_manifest(args.manifest)
    layer, x, constants = _build_from_manifest(args, manifest)
    y = layer.layer(x, training=manifest.training, constants=constants)
    _write_output(args, manifest, y.mask_invalid(), "layer")
    return 0


def _stream_block(args, manifest, layer) -> int:
    """The --block flag over the manifest's block, checked by the step driver."""
    return _resolve_block(layer, args.block if args.block is not None else manifest.block)


def cmd_stream(args) -> int:
    manifest = load_manifest(args.manifest)
    layer, x, constants = _build_from_manifest(args, manifest)
    block = _stream_block(args, manifest, layer)
    y = step_by_step(
        layer, x, training=manifest.training, block=block, constants=constants
    )
    _write_output(args, manifest, y.mask_invalid(), f"stream(block={block})")
    return 0


def cmd_diff(args) -> int:
    manifest = load_manifest(args.manifest)
    layer, x, constants = _build_from_manifest(args, manifest)
    block = _stream_block(args, manifest, layer)
    y = layer.layer(x, training=manifest.training, constants=constants)
    ys = step_by_step(
        layer, x, training=manifest.training, block=block, constants=constants
    )
    failure, metrics = compare(y, ys, args.tolerance, "layer vs stream")
    if failure:
        print(failure)
        return CONTRACT_ERROR
    print(f"max diff {metrics['max_diff']:.6e} <= tolerance {args.tolerance:g}; masks identical")
    return 0


def cmd_verify(args) -> int:
    spec, input_spec = _load_pipeline(args)
    layer = build(spec, input_spec, seed=args.seed)
    report = verify_contract(layer, input_spec, HarnessConfig(seed=args.seed))
    print(report.render())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fp:
            fp.write(report.to_json())
        print(f"wrote {args.report}")
    if not report.passed:
        print(f"failed checks: {', '.join(report.failed_checks)}")
        return CONTRACT_ERROR
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqstream", description="streaming sequence pipelines"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    describe = sub.add_parser("describe", help="print pipeline metadata")
    describe.add_argument("--spec", required=True)
    describe.add_argument("--input-spec", help="channel spec, e.g. f32[8]")
    describe.add_argument("--seed", type=int, default=0)
    describe.set_defaults(fn=cmd_describe)

    run = sub.add_parser("run", help="layer-wise execution")
    run.add_argument("--spec", required=True)
    run.add_argument("--manifest", required=True)
    run.add_argument("--output")
    run.set_defaults(fn=cmd_run)

    stream = sub.add_parser("stream", help="step-wise execution")
    stream.add_argument("--spec", required=True)
    stream.add_argument("--manifest", required=True)
    stream.add_argument("--block", type=int)
    stream.add_argument("--output")
    stream.set_defaults(fn=cmd_stream)

    diff = sub.add_parser("diff", help="compare layer-wise and step-wise execution")
    diff.add_argument("--spec", required=True)
    diff.add_argument("--manifest", required=True)
    diff.add_argument("--block", type=int)
    diff.add_argument("--tolerance", type=float, default=TOLERANCE)
    diff.set_defaults(fn=cmd_diff)

    verify = sub.add_parser("verify", help="run the contract battery")
    verify.add_argument("--spec", required=True)
    verify.add_argument("--input-spec", help="channel spec, e.g. f32[8]")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--report", help="write a JSON report here")
    verify.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (
        PipelineError,
        SpecParseError,
        BlockSizeError,
        NotSteppableError,
        SpecMismatchError,
        ShapeMismatchError,
        MissingConstantError,
        FileNotFoundError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
