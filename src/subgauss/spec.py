"""The sum spec file: its grammar, and a reader process for the command line.

A spec holds an optional 'independent: true|false' header, then one
'coefficient probability' pair per line; '#' starts a comment.  read_terms
is the one reader of that grammar and its error messages.

This module imports only the standard library, so that `python -m subgauss`
can fork a SpecReader before it imports numpy: the reader parses the spec on
another CPU while the parent imports the package, and hands back the terms
or the UsageError text through a pipe.
"""

from __future__ import annotations

import os
from array import array
from typing import Sequence

from .parallel import max_threads

# Characters read per step.  It bounds a step's temporaries: 64 KiB steps
# raised the peak RSS of a 1e5-term spec by about 0.4 MiB over a line
# loop, 16 KiB steps did not.
_SPEC_CHUNK = 1 << 14


class UsageError(Exception):
    """Bad user-supplied value outside argparse's own checks."""


def read_terms(path: str) -> tuple[array, array, bool]:
    """The spec's coefficients, probabilities and independence flag.

    The file is UTF-8 (a leading byte-order mark is skipped; a byte that
    does not decode is named by its line and file offset) and is read once,
    in steps of _SPEC_CHUNK characters that end on a line boundary.  A step
    with no '#' or ':' whose lines are blank or hold two tokens is converted
    in bulk; any other step, or one with a token float() rejects, goes line
    by line, which alone knows comments and headers and reports errors.
    Both split lines on '\\n' and tokens with str.split() and convert with
    float(), so a step gives the same terms either way.  A spec with no
    terms is a UsageError.
    """
    independent = True
    coeffs = array("d")
    probs = array("d")
    lineno = 0
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            while text := fh.read(_SPEC_CHUNK):
                text += fh.readline()  # end the step on a line boundary
                first, lineno = lineno + 1, lineno + text.count("\n")
                if ("#" not in text and ":" not in text
                        and set(map(len, map(str.split, text.split("\n")))) <= {0, 2}):
                    tokens, n = text.split(), len(coeffs)
                    try:
                        coeffs.extend(map(float, tokens[0::2]))
                        probs.extend(map(float, tokens[1::2]))
                        continue
                    except ValueError:
                        del coeffs[n:], probs[n:]
                for k, raw in enumerate(text.split("\n"), start=first):
                    line = raw.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if line.lower().startswith("independent:"):
                        flag = line.split(":", 1)[1].strip().lower()
                        if flag not in ("true", "false"):
                            raise UsageError(
                                f"{path}:{k}: independent must be true or false, got {flag!r}"
                            )
                        independent = flag == "true"
                        continue
                    parts = line.split()
                    if len(parts) != 2:
                        raise UsageError(
                            f"{path}:{k}: expected 'coefficient probability', got {line!r}"
                        )
                    try:
                        coeffs.append(float(parts[0]))
                        probs.append(float(parts[1]))
                    except ValueError:
                        raise UsageError(f"{path}:{k}: not numeric: {line!r}") from None
    except OSError as exc:
        raise UsageError(f"cannot read sum spec {path!r}: {exc}") from None
    except UnicodeDecodeError:
        # The codec's position is into a decode chunk; a BOM decodes as UTF-8.
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = data[:exc.start]
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise UsageError(
                f"'utf-8' codec can't decode byte 0x{data[exc.start]:02x} at "
                f"{path}:{line} (file offset {exc.start}): {exc.reason}"
            ) from None
        raise
    if not coeffs:
        raise UsageError(f"{path}: no terms found")
    return coeffs, probs, independent


class SpecReader:
    """A forked process running read_terms on one path.

    Its message on the pipe is 'T n independent\\n' and the n coefficients
    and n probabilities as native doubles, or 'E\\n' and the UsageError
    text.  It exits 0 only after a whole message; a reader that fails any
    other way leaves its caller to read the spec itself, which meets the
    same failure in its own process.  Fork it only while the process runs
    one thread.
    """

    def __init__(self, path: str):
        self.path = path
        fd_read, fd_write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the reader: never returns
            status = 1
            try:
                os.close(fd_read)
                _send(fd_write, path)
                status = 0
            finally:
                os._exit(status)
        os.close(fd_write)
        self._pid: int | None = pid
        self._fd: int | None = fd_read

    def take(self, path: str) -> tuple[memoryview, memoryview, bool] | None:
        """read_terms(path) as the reader read it, or None when it read
        another path or sent no whole message.  Raises the reader's
        UsageError.  Ends the reader either way."""
        try:
            if path != self.path:
                return None
            fd, self._fd = self._fd, None
            with os.fdopen(fd, "rb") as fh:
                head = fh.readline().split()
                if head == [b"E"]:
                    message = fh.read()
                elif len(head) == 3 and head[0] == b"T":
                    size = int(head[1])
                    data = bytearray(16 * size)
                    fh.readinto(data)
                    terms = memoryview(data).cast("d")
                    message = terms[:size], terms[size:], head[2] == b"1"
                else:
                    return None
            if self._wait() != 0:
                return None
        finally:
            self.close()
        if isinstance(message, bytes):
            raise UsageError(message.decode("utf-8", "surrogatepass"))
        return message

    def _wait(self, kill: bool = False) -> int | None:
        """Reap the reader, killed first if asked: its exit code, or None
        where the system reaped it already (SIGCHLD ignored)."""
        pid, self._pid = self._pid, None
        try:
            if kill:
                import signal

                os.kill(pid, signal.SIGKILL)  # a zombie until reaped
            return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        except (ProcessLookupError, ChildProcessError):
            return None

    def close(self) -> None:
        """Kill and reap the reader if it still runs, and close the pipe."""
        if self._pid is not None:
            self._wait(kill=True)
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def _send(fd: int, path: str) -> None:
    """read_terms(path), or its UsageError text, written to fd as one message."""
    try:
        coeffs, probs, independent = read_terms(path)
    except UsageError as exc:
        parts = [b"E\n", str(exc).encode("utf-8", "surrogatepass")]
    else:
        parts = [b"T %d %d\n" % (len(coeffs), independent), coeffs, probs]
    with os.fdopen(fd, "wb") as fh:
        for part in parts:
            fh.write(part)


def start_reader(argv: Sequence[str]) -> SpecReader | None:
    """A SpecReader for `bound SPEC ...`, or None.

    The guess is the first token after `bound` that is not an option and
    names a regular file; the command line uses the reader's terms only if
    argparse makes that token the spec, so a wrong guess costs only the
    reader's CPU time.  No reader starts where fork is missing or
    SUBGAUSS_THREADS allows one worker; an invalid value is left for the
    command to report where it reports it without a reader.
    """
    if not argv or argv[0] != "bound" or not hasattr(os, "fork"):
        return None
    try:
        if max_threads() < 2:
            return None
    except ValueError:
        return None
    path = next((tok for tok in argv[1:]
                 if not tok.startswith("-") and os.path.isfile(tok)), None)
    return None if path is None else SpecReader(path)
