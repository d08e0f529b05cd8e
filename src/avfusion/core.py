"""Shared domain types, the 7-class label set, the channel layout, file formats.

Tensors are exchanged in the FVT1 binary format: the magic bytes ``FVT1``,
a little-endian u32 rank, ``rank`` little-endian u32 dims, then
``prod(dims)`` little-endian f32 values with no padding.  Values are kept
as float64 in memory and stored as float32 on disk; they must be finite
as float32, which both writing and reading check.

Dataset manifests and decisions files are CSV tables with at least one row, read by
``read_csv``.  A manifest's header is
``clip_id,label,audio,lbptop_video,cnn_scores,blstm_feat``; its label cell may be empty
(test-set mode), and any path cell may be empty when that channel is absent.  A path cell
is text relative to the manifest's directory, or absolute when it starts with '/'; it is
checked when a stage reads its file, so a stage ignores the columns it does not read.  A
decisions file's header is ``clip_id,channel,predicted_label``, its labels emotion names.
"""

import contextlib
import csv
import json
import math
import os
import stat
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Canonical label order: alphabetical over the AFEW folder names.  Index
# positions are load-bearing for CPTs and confusion matrices.
EMOTION_NAMES = ("Angry", "Disgust", "Fear", "Happy", "Neutral", "Sad", "Surprise")
N_CLASSES = 7

_NAME_TO_INDEX = {name: i for i, name in enumerate(EMOTION_NAMES)}

# Channel tags in their fixed fusion order, with their joint-vector widths.
SEGMENT_DIMS = {"audio": 20, "lbptop": 150, "cnn": 49, "blstm": 50}
CHANNELS = tuple(SEGMENT_DIMS)
JOINT_DIM = sum(SEGMENT_DIMS.values())  # 269
# Rows of an n×D matrix that svm_train and normalize_apply take at a time; svm_train
ROW_BLOCK = 128  # holds 3 such blocks (gathered, eta-scaled, gather temporary) at once

_MAGIC = b"FVT1"

# CSV columns of a dataset manifest; the last four hold CHANNELS' paths, in order.
MANIFEST_COLUMNS = ("clip_id", "label", "audio", "lbptop_video", "cnn_scores", "blstm_feat")
# CSV columns of a decisions file; the label is a canonical emotion name.
DECISION_COLUMNS = ("clip_id", "channel", "predicted_label")


class TensorFormatError(ValueError):
    """A tensor file is not valid FVT1."""


class BadMagic(TensorFormatError):
    """The file does not start with the FVT1 magic bytes."""


class Truncated(TensorFormatError):
    """The file ends before the header or payload is complete."""


class ManifestError(ValueError):
    """A dataset manifest violates its contract."""


class DuplicateClipId(ManifestError):
    pass


class UnknownLabel(ManifestError):
    pass


class MalformedRow(ManifestError):
    pass


class DuplicateDecision(ValueError):
    pass


class DimensionMismatch(ValueError):
    """An input's shape disagrees with what the operation requires."""


class LengthMismatch(DimensionMismatch):
    """Two parallel sequences differ in length."""


class EmptyVolume(ValueError):
    """A video volume has no pixels."""


class MissingKey(ValueError):
    """A model file lacks an entry its format requires."""


class ModelFormatError(ValueError):
    """A model file is not a UTF-8 JSON document."""


def emotion_index(name):
    """Map a canonical emotion name to its class index (0..6)."""
    try:
        return _NAME_TO_INDEX[name]
    except KeyError:
        raise UnknownLabel(f"unknown emotion label {name!r}; expected one of {EMOTION_NAMES}")


def check_labels(labels, name="label", n=None, classes=N_CLASSES):
    """Return a label, or an array of them, as int64 when each is a real
    number (int, float, numpy integer or floating; no bool) equal to an
    integer in 0..classes-1; else raise UnknownLabel naming the first one at
    fault.  An integer or float ndarray is checked at once; anything else is
    checked one element at a time as objects, so "1", None, a complex value or
    an element that is not a scalar is no label.  When ``n`` is given the
    labels must be a 1-D sequence of ``n``, else LengthMismatch.  Errors
    start with ``name``."""
    if isinstance(labels, np.ndarray) and labels.dtype.kind in "iuf":  # no bool, str or object
        raw, known = labels, (labels[..., None] == np.arange(classes)).any(axis=-1)
        bad = () if known.all() else raw[~known]  # indexing only on the error path
    else:  # equal numbers hash equal, so the set finds 2.0 and np.int64(2) too
        try:
            raw = np.asarray(labels, dtype=object)
        except ValueError:  # array elements of differing shapes
            raw = np.fromiter(labels, dtype=object)
        real, known = (int, float, np.integer, np.floating), set(range(classes))
        bad = [v for v in raw.flat if type(v) is bool or not isinstance(v, real) or v not in known]
    if n is not None and raw.shape != (n,):
        raise LengthMismatch(f"{name}: expected {n} labels, got shape {raw.shape}")
    if len(bad):
        raise UnknownLabel(f"{name} {bad[0]} is not a class index in 0..{classes - 1}")
    return raw.astype(np.int64)


def check_count(value, name, least=1):
    """Return an int or numpy integer (not bool) >= ``least`` as int, else raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_real(value, name, positive=False, high=math.inf):
    """Return a finite real number (not bool) in [0, high], or in (0, high] when
    ``positive``, as float; anything else raises ValueError starting with ``name``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not 0 <= value <= high or positive and value == 0 or not math.isfinite(value)):
        interval = f"{'(' if positive else '['}0, {high:g}{')' if high == math.inf else ']'}"
        raise ValueError(f"{name} must be a real number in {interval}, got {value!r}")
    return float(value)


def _as_numbers(array, name):  # private: inside every array check, and perfbench times public calls
    """Return ``array`` as a numpy array of numbers (bool, int or float); anything
    else, ragged nesting included, raises a ValueError starting with ``name``."""
    try:
        arr = np.asarray(array)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{name}: expected an array of numbers")
    return arr


def check_shape(array, shape, name):
    """Return ``array`` as float64 when it holds numbers, all finite, in
    the shape ``shape``, where a None entry matches any length.  Anything
    else raises a ValueError, DimensionMismatch for a wrong shape, that
    starts with ``name``."""
    arr = _as_numbers(array, name)
    if arr.ndim != len(shape) or any(want is not None and got != want
                                     for got, want in zip(arr.shape, shape)):
        raise DimensionMismatch(f"{name}: expected shape {tuple(shape)}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: contains non-finite values")
    return arr.astype(np.float64, copy=False)


def check_volume(volume):
    """Validate a T×H×W grayscale volume and return it as float64."""
    vol = check_shape(volume, (None, None, None), "video volume")
    if vol.size == 0:
        raise EmptyVolume(f"volume of shape {vol.shape} has no pixels")
    if vol.min() < 0 or vol.max() > 255:
        raise ValueError("video volume intensities must lie in [0, 255]")
    return vol


def check_scores(scores, name):
    """Return a T×7 score matrix with T >= 1 as float64; errors start with ``name``."""
    mat = check_shape(scores, (None, N_CLASSES), name)
    if not len(mat):
        raise DimensionMismatch(f"{name}: expected at least one frame, got shape {mat.shape}")
    return mat


def check_probabilities(table, shape, name):
    """Validate a probability table of exactly ``shape`` and return it as
    float64: every entry finite and non-negative, and every slice along
    the last axis summing to 1 within 1e-12.  Errors start with ``name``."""
    tab = check_shape(table, shape, name)
    if not (np.all(tab >= 0) and np.all(np.abs(tab.sum(axis=-1) - 1.0) <= 1e-12)):
        raise ValueError(f"{name}: probability table entries must be non-negative, "
                         "and each row must sum to 1 within 1e-12")
    return tab


def write_tensor(path, dims, values):
    """Write an FVT1 tensor file, byte-exact and deterministic.

    Each dim must be an integer >= 0 (not a bool or float), ``prod(dims)``
    must equal ``len(values)`` and all values must be numbers, not strings,
    that stay finite when stored as little-endian f32.  Every check runs
    before the file is opened.  An existing file is rewritten in place
    and cut to the new length; a write that fails partway leaves it empty,
    which no reader takes for a tensor.
    """
    for d in dims:  # check_count's rule, inline to keep a public call per dim off every write
        if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 0:
            raise DimensionMismatch(f"bad dimension in {dims}: dim must be an integer >= 0, "
                                    f"got {d!r}")
    dims = [int(d) for d in dims]
    flat = _as_numbers(values, "tensor values").reshape(-1)
    n = math.prod(dims)
    if n != flat.size:
        raise DimensionMismatch(f"prod({dims}) = {n} but got {flat.size} values")
    with np.errstate(over="ignore"):  # a value beyond the f32 range becomes inf, refused below
        payload = flat.astype("<f4")
    if not np.isfinite(payload).all():
        raise ValueError("tensor values must be finite")
    header = _MAGIC + struct.pack(f"<{len(dims) + 1}I", len(dims), *dims)
    data = header + payload.tobytes()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        info = os.fstat(fd)
        regular = stat.S_ISREG(info.st_mode)
        try:
            done = os.write(fd, data)
            while done < len(data):
                done += os.write(fd, memoryview(data)[done:])
            if regular and info.st_size > len(data):
                os.ftruncate(fd, len(data))
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)


def read_tensor(path):
    """Read an FVT1 tensor file; returns ``(dims, values)``.

    ``values`` is a float64 array of ``prod(dims)`` entries.  Raises
    BadMagic on a wrong magic, Truncated when the file ends early and
    ValueError when a value is not finite.
    """
    with open(os.fspath(path), "rb", buffering=0) as fh:  # an int path is no descriptor
        blob = fh.readall()
    if len(blob) < 4:
        raise Truncated(f"{path}: file shorter than the magic")
    if blob[:4] != _MAGIC:
        raise BadMagic(f"{path}: expected magic {_MAGIC!r}, found {blob[:4]!r}")
    if len(blob) < 8:
        raise Truncated(f"{path}: missing rank field")
    (rank,) = struct.unpack_from("<I", blob, 4)
    header_end = 8 + 4 * rank
    if len(blob) < header_end:
        raise Truncated(f"{path}: header announces rank {rank} but dims are cut short")
    dims = list(struct.unpack_from(f"<{rank}I", blob, 8))
    n = math.prod(dims)
    expected = header_end + 4 * n
    if len(blob) < expected:
        raise Truncated(f"{path}: payload needs {expected} bytes, file has {len(blob)}")
    if len(blob) > expected:
        raise TensorFormatError(f"{path}: {len(blob) - expected} trailing bytes after payload")
    values = np.frombuffer(blob, dtype="<f4", count=n, offset=header_end).astype(np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: tensor values must be finite")
    return dims, values


def read_tensor_array(path):
    """Read an FVT1 file and return the values reshaped to their dims."""
    dims, values = read_tensor(path)
    return values.reshape(dims)


def write_tensor_array(path, array):
    """Write an array as an FVT1 tensor, dims taken from its shape."""
    arr = _as_numbers(array, "tensor values")
    write_tensor(path, list(arr.shape), arr.reshape(-1))


def require_key(doc, key):
    """Return ``doc[key]`` from a parsed JSON object; a missing key, or a
    ``doc`` that is not an object, raises MissingKey."""
    if not isinstance(doc, dict) or key not in doc:
        raise MissingKey(f"missing key {key!r}")
    return doc[key]


@contextlib.contextmanager
def _committed(paths):
    """Yield a temporary sibling ``.<name>.tmp`` per path, renamed into place
    in order once the block succeeds and removed if it fails.  A path that
    exists but is not a regular file, or two paths of one file, are refused
    before the block runs."""
    finals = [Path(os.fsdecode(path)) for path in paths]
    for i, final in enumerate(finals):  # a file's second rename would find no temporary
        if os.path.realpath(final) in map(os.path.realpath, finals[:i]):
            raise ValueError(f"{final}: named twice in one save; refusing to write it")
        with contextlib.suppress(FileNotFoundError):
            if not stat.S_ISREG(os.stat(final).st_mode):
                raise OSError(f"{final}: exists and is not a regular file; refusing to replace it")
    temps = [final.with_name(f".{final.name}.tmp") for final in finals]
    try:
        yield temps
    except BaseException:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
        raise
    for tmp, final in zip(temps, finals):
        os.replace(tmp, final)


def write_csv(path, rows):
    """Write a list of built ``rows``, the header first, as a CSV file
    all-or-nothing: a failed save leaves the old file as it was."""
    with _committed([path]) as (tmp,), open(tmp, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def read_csv(path, columns, error, parse):
    """Yield ``parse(*stripped cells)`` for each row of the CSV file at
    ``path``, whose header must be ``columns``.  A wrong or missing header,
    a row not ``len(columns)`` cells wide, or a file with no rows raises
    ``error`` naming the file, and for a row its line; a ValueError from
    ``parse`` is re-raised with ``path:line:`` in front, its type kept."""
    with open(os.fspath(path), newline="") as fh:
        reader = csv.reader(fh)
        if tuple(h.strip() for h in next(reader, ())) != columns:
            raise error(f"{path}: header must be {','.join(columns)}")
        lineno = 1
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(columns):
                raise error(f"{path}:{lineno}: expected {len(columns)} cells, got {len(row)}")
            try:  # cells as a list: a generator's resized args tuples pile up in the free list
                yield parse(*[cell.strip() for cell in row])
            except ValueError as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from exc
    if lineno == 1:
        raise error(f"{path}: no rows below the header")


def write_models(*models):
    """Save each ``(path, kind, tensors, fields)`` model: the JSON file
    ``{"kind": kind, **fields}`` (indent 2, sorted keys, trailing newline)
    at ``path``, after each of ``tensors`` in a sibling FVT1 file
    ``<stem>.<name>.fvt``, listed under ``tensors`` when there are any.
    All files are one all-or-nothing save: each is written under a
    temporary name and all are renamed into place in order once every
    write succeeded, so a failed save leaves every old file untouched."""
    files = []
    for path, kind, tensors, fields in models:
        path = Path(os.fsdecode(path))
        names = {name: f"{path.stem}.{name}.fvt" for name in tensors}
        files += [(path.parent / names[name], array) for name, array in tensors.items()]
        files.append((path, {"kind": kind, **fields, **({"tensors": names} if names else {})}))
    with _committed([path for path, _ in files]) as temps:
        for tmp, (_, content) in zip(temps, files):
            if isinstance(content, dict):
                with open(tmp, "w") as fh:
                    json.dump(content, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            else:
                write_tensor_array(tmp, content)


def read_model(path, kind, build):
    """Read a model file and return ``build(doc, tensor)``: ``doc`` is the
    parsed JSON, whose ``kind`` must be ``kind``, and ``tensor(name)``
    reads the bundle tensor it records under ``name``.  A ValueError on
    the way is re-raised with the path in front: as ModelFormatError when
    the file is not UTF-8 JSON, else with its type kept."""
    path = Path(os.fsdecode(path))
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ModelFormatError(f"{path}: {exc}") from exc

    def tensor(name):
        fname = require_key(require_key(doc, "tensors"), name)
        if not isinstance(fname, str):
            raise ValueError(f"tensor {name!r}: expected a file name, got {fname!r}")
        return read_tensor_array(path.parent / fname)

    try:
        found = require_key(doc, "kind")
        if found != kind:
            raise ValueError(f"expected a {kind!r} model, found {found!r}")
        return build(doc, tensor)
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


@dataclass(frozen=True, slots=True)
class ManifestEntry:
    clip_id: str
    label: int | None
    paths: dict  # channel tag -> path string, only for channels present


@dataclass(frozen=True)
class DatasetManifest:
    entries: list

    def labels(self):
        """Label indices in entry order; raises if any entry is unlabeled."""
        if unlabeled := [e.clip_id for e in self.entries if e.label is None]:
            raise ManifestError(f"clip {unlabeled[0]!r} has no label")
        return [e.label for e in self.entries]


def load_manifest(path):
    """Load a dataset manifest CSV; validates labels and ids.  A relative path
    cell is joined to the manifest's directory as text, not opened: a
    missing file fails where a stage reads it."""
    folder, seen = os.path.dirname(os.fsdecode(path)), set()

    def entry(clip_id, label, *cells):
        if not clip_id:
            raise MalformedRow("empty clip_id")
        if clip_id in seen:
            raise DuplicateClipId(f"clip_id {clip_id!r} repeats")
        seen.add(clip_id)
        return ManifestEntry(clip_id, emotion_index(label) if label else None, {
            channel: os.path.join(folder, cell) for channel, cell in zip(CHANNELS, cells) if cell})
    return DatasetManifest(entries=list(read_csv(path, MANIFEST_COLUMNS, MalformedRow, entry)))


def _cell(text, name, error):
    """``text`` if ``read_csv`` reads it back as written, else ``error`` naming ``name``."""
    if not (isinstance(text, str) and text.strip() == text != ""):
        raise error(f"{name} {text!r} is not a non-empty str without whitespace at either end")
    return text


def save_manifest(path, entries):
    """Write a manifest CSV from (clip_id, label index or None, channel->cell)
    entries; None leaves the label cell empty, and a channel with no cell
    gets an empty one.  Each cell, a str or os.PathLike, is written as given.
    A table the reader would refuse or read back otherwise raises first: a repeated
    clip_id DuplicateClipId; no entries, an empty, non-str or padded cell or a key no
    channel MalformedRow."""
    entries, seen = list(entries), set()
    if not entries:
        raise MalformedRow(f"{path}: no entries to write")
    names = iter(check_labels([label for _, label, _ in entries if label is not None]).tolist())
    for clip_id, _, paths in entries:
        if _cell(clip_id, "clip_id", MalformedRow) in seen:
            raise DuplicateClipId(f"clip_id {clip_id!r} repeats")
        seen.add(clip_id)
        if unknown := [key for key in paths if key not in SEGMENT_DIMS]:
            raise MalformedRow(f"clip {clip_id!r}: {unknown[0]!r} is not a channel of {CHANNELS}")
    write_csv(path, [MANIFEST_COLUMNS, *(
        [clip_id, "" if label is None else EMOTION_NAMES[next(names)],
         *(_cell(os.fspath(paths[ch]), f"{ch} path", MalformedRow) if ch in paths else ""
           for ch in CHANNELS)] for clip_id, label, paths in entries)])


def write_decisions(path, rows):
    """Write a decisions CSV of (clip_id, channel, label index) rows.  A table the
    reader would refuse or read back otherwise raises first: a repeated (clip_id,
    channel) pair DuplicateDecision; no rows, an empty, non-str or padded cell ValueError."""
    if not rows:
        raise ValueError(f"{path}: no rows to write")
    labels, seen = check_labels([label for *_, label in rows], n=len(rows)), set()
    for clip_id, channel, _ in rows:
        if (_cell(clip_id, "clip_id", ValueError), _cell(channel, "channel", ValueError)) in seen:
            raise DuplicateDecision(f"second {channel} decision for {clip_id!r}")
        seen.add((clip_id, channel))
    write_csv(path, [DECISION_COLUMNS, *((c, ch, EMOTION_NAMES[label])
                                         for (c, ch, _), label in zip(rows, labels.tolist()))])


def read_decisions(paths):
    """Read decisions CSVs into clip_id -> {channel: label index}, clips in
    the order they first appear across the files.

    Each (clip, channel) pair may appear once across the files; a repeat
    raises DuplicateDecision rather than letting one decision silently win.
    Each file must hold a row below its header, else ValueError names it.
    """
    if isinstance(paths, (str, bytes, os.PathLike)):
        raise TypeError(f"read_decisions takes a list of paths, got {paths!r}")
    merged = {}

    def decision(clip_id, channel, label):  # sees every row merged before it
        if not (clip_id and channel):
            raise ValueError(f"empty {'channel' if clip_id else 'clip_id'}")
        if channel in merged.get(clip_id, ()):
            raise DuplicateDecision(f"second {channel} decision for {clip_id!r}")
        return clip_id, channel, emotion_index(label)
    for path in paths:
        for clip_id, channel, label in read_csv(path, DECISION_COLUMNS, ValueError, decision):
            merged.setdefault(clip_id, {})[channel] = label
    return merged
