"""Cross-job artifact cache for decoded traces, replay frames and L1 streams.

Campaigns that sweep MTJ/ECC parameters over a fixed workload mix re-derive
the same inputs in every job: the synthetic L2 trace is regenerated, the
cache's hit/miss and victim decisions over it are replayed, and (on the CPU
path) the L1 filter replays the same CPU stream against the same L1
configuration.  These derivations are pure functions of a small recipe, so
this module persists them once per worker machine in a
content-hash-keyed, mmap-backed cache:

* **Decoded L2 traces** are stored in the binary chunked trace format
  (:mod:`repro.workloads.streams`); a hit serves a zero-copy
  :class:`~repro.workloads.streams.BinaryTraceSource`, which the engines
  replay through the segmented path that is bit-identical to whole-trace
  replay, so results are byte-identical with the cache cold, warm, or
  disabled.
* **Functional-replay frame columns** — the cache frame every access of
  a decoded L2 stream lands in, as the SoA kernel's functional pass
  computes it from an empty LRU cache — are stored as ``.npy`` files keyed
  by :func:`repro.sim.soa.frames_key`.  That pass reads neither the
  protection scheme nor any MTJ/ECC parameter, so every job of such a
  sweep skips it on a hit (see :class:`repro.sim.fastpath.FrameMemo`).
* **L1-filtered L2 streams** are stored as a binary trace of the realised
  L2 requests plus a pickled end-state sidecar (L1 block fields, policy
  state, statistics), keyed by :meth:`Trace.content_hash` + the L1
  configuration + the seed — so sweeping the L1 configuration naturally
  keys separate entries instead of reusing a stale stream.

Concurrency and failure semantics mirror the campaign result stores:
artifacts are written to a temporary file in the cache directory and
published with an atomic :func:`os.replace`, so racing writers each leave a
complete file and the last one wins (both compute identical bytes for one
key).  A truncated or corrupt artifact reads as a miss and is recomputed
(and rewritten, healing the entry); an unwritable cache directory degrades
to uncached operation with a single deduplicated warning per directory.

The cache location is an operational knob — CLI ``--artifact-cache`` or the
``REPRO_ARTIFACT_CACHE`` environment variable — and never enters job
identity: :class:`~repro.campaign.spec.JobSpec` keys and experiment
settings are unchanged by it, exactly like the engine selection.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import TraceError
from ..telemetry import emit_counter
from .generator import generate_l2_trace
from .streams import BinaryTraceSource, BinaryTraceWriter, TraceSource
from .trace import Trace

#: Environment override for the cache directory (CLI flags take precedence
#: where a flag exists; workers resolve the environment first so a machine
#: can force its own location or disable caching outright).
ARTIFACT_CACHE_ENV = "REPRO_ARTIFACT_CACHE"

#: Spellings that explicitly disable the cache.
_DISABLED = frozenset({"", "0", "off", "none", "disabled"})

#: Recipe schema version; bump when a key payload or artifact layout changes.
_SCHEMA = 1

#: Cache directories already warned about (unwritable → degrade once).
_warned_roots: set[str] = set()


def _reset_warned_roots() -> None:
    """Forget which cache directories have warned (test hook)."""
    _warned_roots.clear()


def _recipe_hash(payload: Any) -> str:
    # Lazy import: the campaign package imports the sim stack, which imports
    # this package — resolving at call time keeps module import acyclic
    # while reusing the one canonical hashing implementation.
    from ..campaign.hashing import content_hash

    return content_hash(payload)


def _emit(kind: str, outcome: str, nbytes: int = 0) -> None:
    # The field is named ``artifact`` (not ``kind``) because emitted fields
    # merge into the event envelope, whose ``kind`` key is the event kind.
    emit_counter("cache.artifact", artifact=kind, outcome=outcome, bytes=nbytes)


class ArtifactCache:
    """A content-addressed on-disk cache of derived workload artifacts.

    Instances are cheap; every operation degrades to a miss (never an
    exception) when the underlying directory misbehaves, so a worker with a
    broken cache computes exactly what an uncached worker would.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactCache({str(self.root)!r})"

    @classmethod
    def resolve(
        cls, spec: "ArtifactCache | str | Path | None" = None
    ) -> "ArtifactCache | None":
        """Resolve a cache from an explicit spec or the environment.

        An explicit ``spec`` wins; otherwise ``REPRO_ARTIFACT_CACHE`` is
        consulted.  The disabling spellings (empty, ``0``, ``off``,
        ``none``, ``disabled``) return ``None`` so either channel can turn
        caching off explicitly.
        """
        if isinstance(spec, cls):
            return spec
        if spec is None:
            spec = os.environ.get(ARTIFACT_CACHE_ENV)
        if spec is None or str(spec).strip().lower() in _DISABLED:
            return None
        return cls(spec)

    # -- low-level storage ------------------------------------------------------

    def _publish(self, path: Path, write_to) -> bool:
        """Write an artifact atomically; degrade (with one warning) on failure.

        ``write_to`` receives a temporary path in the same directory and
        must leave a complete file there; the temp file is then renamed
        over ``path``.  Racing writers both succeed — artifact content is a
        pure function of the key, so whichever rename lands last publishes
        the same bytes.
        """
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=path.name + ".", suffix=".tmp"
            )
            os.close(fd)
            write_to(tmp)
            os.replace(tmp, path)
            return True
        except OSError as exc:
            self._warn_unwritable(exc)
            return False
        finally:
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)

    def _warn_unwritable(self, exc: Exception) -> None:
        root_key = str(self.root)
        if root_key in _warned_roots:
            return
        _warned_roots.add(root_key)
        warnings.warn(
            f"artifact cache at {root_key} is not writable ({exc}); "
            "continuing uncached",
            RuntimeWarning,
            stacklevel=4,
        )

    # -- decoded L2 traces ------------------------------------------------------

    def trace_key(self, profile, config, num_accesses: int, seed: int) -> str:
        """Recipe key of a generated L2 trace.

        The key spans exactly the inputs :func:`generate_l2_trace` reads:
        the profile fields and the address geometry of the target L2.  ECC,
        MTJ and read-path settings are deliberately excluded, so sweeping
        them hits one shared trace artifact.
        """
        return _recipe_hash(
            {
                "schema": _SCHEMA,
                "kind": "l2-trace",
                "profile": asdict(profile),
                "geometry": {
                    "size_bytes": config.size_bytes,
                    "associativity": config.associativity,
                    "block_size_bytes": config.block_size_bytes,
                    "address_bits": config.address_bits,
                },
                "num_accesses": num_accesses,
                "seed": seed,
            }
        )

    def _trace_path(self, key: str) -> Path:
        return self.root / "traces" / f"{key}.reaptrc"

    def _open_trace(self, path: Path, kind: str) -> BinaryTraceSource | None:
        try:
            if not path.is_file():
                _emit(kind, "miss")
                return None
            source = BinaryTraceSource(path)
        except (TraceError, OSError, ValueError):
            # Truncated or corrupt artifact: treat as a miss; the recompute
            # below rewrites (heals) the entry atomically.
            _emit(kind, "error")
            return None
        _emit(kind, "hit", nbytes=path.stat().st_size)
        return source

    def l2_trace(self, profile, config, num_accesses: int, seed: int):
        """A cached trace source for the recipe, generating on miss.

        Returns a :class:`BinaryTraceSource` on a hit (replayed through the
        bit-identical segmented path) or the freshly generated in-memory
        :class:`Trace` on a miss, after persisting it for the next job.
        """
        key = self.trace_key(profile, config, num_accesses, seed)
        path = self._trace_path(key)
        source = self._open_trace(path, "trace")
        if source is not None:
            return source
        trace = generate_l2_trace(profile, config, num_accesses, seed=seed)
        kinds, addresses = trace.decoded()

        def write_to(tmp: str) -> None:
            with BinaryTraceWriter(tmp, trace.name) as writer:
                writer.append(kinds, addresses)

        if self._publish(path, write_to):
            _emit("trace", "store", nbytes=path.stat().st_size)
        return trace

    def binary_text_trace(self, path: str | Path, source: TraceSource):
        """A binary-format mirror of a text trace file, converted once.

        Keyed by the file's identity (absolute path, size, mtime): editing
        the file invalidates the entry.  On any cache failure the original
        ``source`` is returned unchanged.
        """
        try:
            stat = Path(path).stat()
            key = _recipe_hash(
                {
                    "schema": _SCHEMA,
                    "kind": "text-trace",
                    "path": str(Path(path).resolve()),
                    "size": stat.st_size,
                    "mtime_ns": stat.st_mtime_ns,
                }
            )
        except OSError:
            return source
        cache_path = self._trace_path(key)
        cached = self._open_trace(cache_path, "trace")
        if cached is not None:
            return cached

        def write_to(tmp: str) -> None:
            with BinaryTraceWriter(tmp, source.name) as writer:
                for kinds, addresses in source.segments():
                    writer.append(kinds, addresses)

        if not self._publish(cache_path, write_to):
            return source
        _emit("trace", "store", nbytes=cache_path.stat().st_size)
        converted = self._open_trace(cache_path, "trace")
        return converted if converted is not None else source

    # -- functional-replay frame columns ----------------------------------------

    def _frames_path(self, key: str) -> Path:
        name = _recipe_hash({"schema": _SCHEMA, "kind": "l2-frames", "key": key})
        return self.root / "frames" / f"{name}.npy"

    def load_frames(self, key: str) -> np.ndarray | None:
        """The frame column stored under a :func:`repro.sim.soa.frames_key`.

        ``None`` on a miss or an unreadable file; the kernel additionally
        checks the column against its stream and recomputes on mismatch.
        """
        path = self._frames_path(key)
        try:
            if not path.is_file():
                _emit("frames", "miss")
                return None
            frames = np.load(path, allow_pickle=False)
        except (OSError, ValueError, EOFError):
            _emit("frames", "error")
            return None
        _emit("frames", "hit", nbytes=path.stat().st_size)
        return frames

    def store_frames(self, key: str, frames: np.ndarray) -> bool:
        """Persist a frame column; False on degrade."""
        path = self._frames_path(key)

        def write_to(tmp: str) -> None:
            with open(tmp, "wb") as handle:
                np.save(handle, frames, allow_pickle=False)

        if not self._publish(path, write_to):
            return False
        _emit("frames", "store", nbytes=path.stat().st_size)
        return True

    # -- L1-filtered L2 streams -------------------------------------------------

    def l1_stream_key(self, trace_hash: str, hierarchy_config, seed: int) -> str:
        """Recipe key of an L1-filtered stream.

        Includes the full L1I/L1D configurations, so a campaign sweeping
        the L1 configuration keys distinct entries (filtered-stream reuse
        is effectively skipped across the sweep axis) instead of sharing a
        stale stream.
        """
        return _recipe_hash(
            {
                "schema": _SCHEMA,
                "kind": "l1-stream",
                "trace": trace_hash,
                "l1i": hierarchy_config.l1i.to_dict(),
                "l1d": hierarchy_config.l1d.to_dict(),
                "seed": seed,
            }
        )

    def _stream_paths(self, key: str) -> tuple[Path, Path]:
        base = self.root / "l1"
        return base / f"{key}.reaptrc", base / f"{key}.state"

    def load_l1_stream(
        self, key: str
    ) -> tuple[np.ndarray, np.ndarray, Any] | None:
        """Load a filtered stream: ``(codes, addresses, state)`` or ``None``.

        ``codes`` are the engine's L2 codes (0 read, 1 write-back);
        ``state`` is the opaque end-state object stored alongside.
        """
        stream_path, state_path = self._stream_paths(key)
        if not (stream_path.is_file() and state_path.is_file()):
            _emit("l1-stream", "miss")
            return None
        try:
            source = BinaryTraceSource(stream_path)
            parts = [(k, a) for k, a in source.segments()]
            if parts:
                kinds = np.concatenate([k for k, _ in parts])
                addresses = np.concatenate([a for _, a in parts])
            else:
                kinds = np.zeros(0, dtype=np.int8)
                addresses = np.zeros(0, dtype=np.int64)
            with state_path.open("rb") as handle:
                state = pickle.load(handle)
        except (
            TraceError,
            OSError,
            ValueError,
            KeyError,
            EOFError,
            AttributeError,
            ImportError,
            IndexError,
            pickle.UnpicklingError,
        ):
            _emit("l1-stream", "error")
            return None
        # Stored kinds are the L2-level KIND_ORDER indices (3 read, 4
        # write-back); map back to the engines' 0/1 codes.
        codes = (kinds - 3).astype(np.int8)
        nbytes = stream_path.stat().st_size + state_path.stat().st_size
        _emit("l1-stream", "hit", nbytes=nbytes)
        return codes, addresses, state

    def store_l1_stream(
        self,
        key: str,
        name: str,
        codes: np.ndarray,
        addresses: np.ndarray,
        state: Any,
    ) -> bool:
        """Persist a filtered stream and its end state; False on degrade."""
        try:
            blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError):
            # Unpicklable policy state (e.g. an exotic replacement policy):
            # skip caching rather than fail the run.
            _emit("l1-stream", "skip")
            return False
        kinds = (np.asarray(codes, dtype=np.int8) + 3).astype(np.int8)
        addresses = np.asarray(addresses, dtype=np.int64)
        stream_path, state_path = self._stream_paths(key)
        if not self._publish(state_path, lambda tmp: Path(tmp).write_bytes(blob)):
            return False

        def write_to(tmp: str) -> None:
            with BinaryTraceWriter(tmp, name) as writer:
                writer.append(kinds, addresses)

        if not self._publish(stream_path, write_to):
            return False
        nbytes = stream_path.stat().st_size + state_path.stat().st_size
        _emit("l1-stream", "store", nbytes=nbytes)
        return True
