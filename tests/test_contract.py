"""The CLI's exit-code contract, fuzzed: 0 on success, 2 for bad arguments
or config, 3 for bad input data, and never 1 or a traceback.

One derandomized hypothesis test drives ``cli.run`` over all eleven
subcommands. Each flag is drawn from the subcommand's own parser action: a
value of the action's type or one of its choices, an OVERRIDES flag at or
next to the edges of its config range, or a file. A config file is
``default_config()`` with at most one leaf mutated, and an input file holds
at most one malformed box or point record. Every failure must print exactly
one ``ERROR <code>:`` line, and every box or point file that a command
writes with exit 0 must read back.
"""

import argparse
import contextlib
import io
import json
import math
import struct
import tempfile
from pathlib import Path, PurePosixPath

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarpost import cli
from lidarpost.geometry import Label
from lidarpost.io import read_boxes, read_points
from lidarpost.schema import Range

PARSER = cli.build_parser()
SUBCOMMANDS = next(action for action in PARSER._actions
                   if isinstance(action, argparse._SubParsersAction)).choices
# Flags without a type name files: these are written, the rest are read.
OUTPUT_DESTS = {"output", "pr_csv"}
POINT_DESTS = {"current", "previous", "points"}
# What each command writes to --output that a reader must take back.
BOX_WRITERS = {"nms", "soft-nms", "vote", "ensemble", "track"}
POINT_WRITERS = {"concat"}
FLAG_PATHS = {dest: path for flags in cli.OVERRIDES.values() for dest, path in flags.items()}

FLOAT_MAX = 1.7976931348623157e308
REFUSED_NUMBERS = ["x", "", "1e400", "nan", "-inf"]


def _rule(path):
    """The range (or tuple of choices) declared for the setting that governs
    a dotted config path, the setting itself or the map that holds it."""
    rule = cli.Config()
    for key in path.split("."):
        rule = cli._field_rule(rule, key)
        if isinstance(rule, (Range, tuple)):
            return rule
    raise KeyError(path)


def _edges(rule, kind):
    """Values at and one ulp (one, for integers) either side of the rule's
    finite bounds, and the largest finite values for an infinite one."""
    if isinstance(rule, tuple):
        return list(rule) + ["L3"]
    values = []
    for bound in (rule.low, rule.high):
        if math.isinf(bound):
            values.append(math.copysign(FLOAT_MAX, bound))
        elif kind is int:
            values += [int(bound) - 1, int(bound), int(bound) + 1]
        else:
            values += [math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf)]
    return values


def _leaves(node, keys=()):
    """(keys, default) of each config leaf; a list element's last key is its index."""
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(value, keys + (key,))
    else:
        yield keys, node


LEAVES = list(_leaves(cli.default_config()))


def _rarely(draw, odds=8):
    """True about once in odds draws: each part of an invocation is faulty
    that rarely, so that most invocations reach a command's work."""
    return draw(st.sampled_from([False] * (odds - 1) + [True]))


@st.composite
def config_files(draw):
    """JSON text of default_config() with at most one leaf mutated: to
    another type, NaN, +-inf, 10**400, or a value at or by its range's bounds."""
    config = cli.default_config()
    if _rarely(draw, 3):
        keys, default = draw(st.sampled_from(LEAVES))
        path = ".".join(key for key in keys if isinstance(key, str))
        mutations = ["x", True, None, [], {}, math.nan, math.inf, -math.inf, 10 ** 400]
        mutations += _edges(_rule(path), type(default))
        if type(default) is int:
            mutations.append(1.5)
        section = config
        for key in keys[:-1]:
            section = section[key]
        section[keys[-1]] = draw(st.sampled_from(mutations))
    return json.dumps(config)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SIZE = st.floats(min_value=5e-324, max_value=FLOAT_MAX)


@st.composite
def box_records(draw, frame_id, timestamp, track_id=True):
    """A valid record: most near the others, some anywhere in float range."""
    wild = _rarely(draw, 3)

    def value(usual, anywhere):
        return draw(usual | anywhere if wild else usual)

    record = dict(
        frame_id=frame_id, timestamp=timestamp,
        cx=value(st.sampled_from([0.0, 0.5, 1.0, 30.0]), FINITE),
        cy=value(st.sampled_from([0.0, 0.3, 2.0]), FINITE),
        cz=value(st.sampled_from([0.0, 0.5]), FINITE),
        l=value(st.sampled_from([4.0, 4.5, 1.0]), SIZE),
        w=value(st.sampled_from([2.0, 1.9, 0.8]), SIZE),
        h=value(st.sampled_from([1.5, 1.6]), SIZE),
        heading=value(st.sampled_from([0.0, 0.1, math.pi, -math.pi, math.pi / 2]), FINITE),
        score=value(st.sampled_from([0.9, 0.8, 0.5, 1.0, 0.0]), st.floats(0.0, 1.0)),
        label=draw(st.sampled_from([label.value for label in Label])),
    )
    if track_id:  # which the MOT metric needs on every box
        record["track_id"] = draw(st.integers(0, 3) | st.just(2 ** 63))
    for key, ids in (("difficulty", st.sampled_from([1, 2])),
                     ("num_points", st.integers(0, 200)),
                     ("source_id", st.integers(0, 2))):
        if draw(st.booleans()):
            record[key] = draw(ids)
    return record


BAD_VALUES = [None, "x", True, math.nan, math.inf, -math.inf, 10 ** 400, -1, 0, 2, 1.5, [], {},
              "BICYCLE"]
BAD_LINES = [b"{broken", b"[1, 2]", b"null", b"\xff", b"[" * 5000, b""]


@st.composite
def box_files(draw):
    """JSONL bytes of up to three frames, and at most one malformed line: a
    bad value, a missing key, no JSON object, or frame f0 again (after the
    others, or at an earlier time)."""
    records = []
    timestamp = 0.0
    track_ids = not _rarely(draw, 4)
    for index in range(draw(st.integers(1, 3))):
        timestamp += draw(st.sampled_from([0.1, 1.0, 0.0]))
        records += [draw(box_records(f"f{index}", timestamp, track_ids))
                    for _ in range(draw(st.integers(0, 4)))]
    lines = [json.dumps(record).encode() for record in records]
    if _rarely(draw, 3):
        flaw = draw(st.sampled_from(["value", "missing", "line", "frame"]))
        record = draw(box_records("f0", draw(st.sampled_from([0.0, -1.0]))))
        key = draw(st.sampled_from(sorted(record)))
        if flaw == "value":
            record[key] = draw(st.sampled_from(BAD_VALUES))
        elif flaw == "missing":
            del record[key]
        line = draw(st.sampled_from(BAD_LINES)) if flaw == "line" else json.dumps(record).encode()
        lines.insert(len(lines) if flaw == "frame" else draw(st.integers(0, len(lines))), line)
    return b"".join(line + b"\n" for line in lines)


POINT_VALUE = st.sampled_from([0.0, 0.5, 1.0, 10.0, -10.0, 70.0]) | st.floats(
    allow_nan=False, allow_infinity=False, width=32)


@st.composite
def point_files(draw):
    """float32 records of 4 or 5 channels, and at most one malformed one: a
    non-finite value, a negative intensity or time, or a cut last record."""
    channels = draw(st.sampled_from([4, 5]))
    rows = [[draw(POINT_VALUE) for _ in range(3)] + [abs(draw(POINT_VALUE))] * (channels - 3)
            for _ in range(draw(st.integers(0, 6)))]
    flaw = draw(st.sampled_from(["value", "truncated"])) if _rarely(draw, 3) else None
    if flaw == "value" and rows:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, channels - 1))] = draw(st.sampled_from([math.nan, math.inf, -1.0]))
    data = b"".join(struct.pack(f"<{channels}f", *row) for row in rows)
    if flaw == "truncated" and data:
        data = data[:-draw(st.integers(1, 3))]
    return data


def _numbers(rule, kind):
    """Numbers inside a declared Range."""
    if kind is int:
        return st.integers(int(rule.low), 12)
    return st.floats(rule.low, rule.high, exclude_min=rule.low_open, exclude_max=rule.high_open,
                     allow_infinity=False)


@st.composite
def flag_values(draw, action):
    """An argv value for a typed flag: mostly one it accepts; else one it
    refuses, or a number at or by the edges of its config range."""
    faulty = _rarely(draw)
    if action.type is cli._label:
        return draw(st.sampled_from(["BICYCLE"] if faulty else [label.value for label in Label]))
    if action.choices is not None:
        choices = [str(choice) for choice in action.choices]
        return draw(st.sampled_from(["0"] if faulty else choices))
    rule = _rule(FLAG_PATHS[action.dest])
    kind = int if action.type is int else float
    if isinstance(rule, tuple):
        numbers = st.sampled_from(["L3"] if faulty else list(rule))
    elif faulty:
        numbers = st.sampled_from([repr(value) for value in _edges(rule, kind)] + REFUSED_NUMBERS)
    else:
        numbers = _numbers(rule, kind).map(repr)
    if action.type is cli._float_list:
        return ",".join(draw(st.lists(numbers, min_size=1, max_size=3)))
    return draw(numbers)


@st.composite
def invocations(draw):
    """(command, argv, {file name: bytes}); file arguments are relative
    PurePosixPaths: one of the files, an output, or now and then a missing
    file or an output in a missing directory."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [command]
    files = {}
    for action in SUBCOMMANDS[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if _rarely(draw, 30 if action.required else 3):
            continue
        flag = action.option_strings[0]
        if action.type is not None or action.choices is not None:
            # One word, so that argparse takes a value such as -1e-05 as one.
            argv.append(f"{flag}={draw(flag_values(action))}")
            continue
        argv.append(flag)
        count = 1
        if action.nargs == "+":  # ensemble's --inputs, where one file is an argument error
            count = 1 if _rarely(draw) else draw(st.integers(2, 3))
        for i in range(count):
            name = f"{action.dest}{i}"
            if action.dest in OUTPUT_DESTS:
                name = f"absent/{name}" if _rarely(draw, 30) else name
            elif action.dest == "config":
                files[name] = draw(config_files()).encode()
            elif not _rarely(draw, 30):
                files[name] = draw(point_files() if action.dest in POINT_DESTS else box_files())
            argv.append(PurePosixPath(name))
    return command, argv, files


def _run(argv):
    """cli.run's exit code and standard error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, err.getvalue()


def test_every_invocation_exits_0_2_or_3(tmp_path):
    seen = set()

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(invocations())
    def check(invocation):
        command, argv, files = invocation
        seen.add(command)
        with tempfile.TemporaryDirectory(dir=tmp_path) as workdir:
            work = Path(workdir)
            for name, data in files.items():
                (work / name).write_bytes(data)
            code, err = _run([str(work / arg) if isinstance(arg, PurePosixPath) else arg
                                 for arg in argv])
            assert code in (0, 2, 3), err
            assert "Traceback" not in err
            errors = [line for line in err.splitlines() if line.startswith("ERROR ")]
            if code == 0:
                assert errors == []
            else:
                assert len(errors) == 1 and errors[0].startswith(f"ERROR {code}:"), err
            if code == 0 and command in BOX_WRITERS:
                read_boxes(work / "output0")
            if code == 0 and command in POINT_WRITERS:
                read_points(work / "output0", 5)

    check()
    assert seen == set(SUBCOMMANDS)
