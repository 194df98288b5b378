"""The sum spec file: its grammar, and a reader process for the command line.

A spec holds an optional 'independent: true|false' header, then one
'coefficient probability' pair per line; '#' starts a comment.  read_terms
is the one reader of that grammar and its error messages.

This module imports only the standard library, so that `python -m subgauss`
can fork a SpecReader before it imports numpy: the reader parses the spec on
another CPU while the parent imports the package, and hands back the terms
or the UsageError text through a pipe as one marshal message.
"""

from __future__ import annotations

import marshal
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

    Its one marshal message on the pipe is read_terms' (coefficients,
    probabilities, independent), the arrays as bytes, or the UsageError
    text.  marshal is self-delimiting: a message that does not load whole
    is one the reader never finished, and its caller reads the spec itself,
    meeting the same failure in its own process.  The pipe joins the parent
    to its own child only, so the data is trusted.  close() is the reader's
    one end.  Fork it only while the process runs one thread.
    """

    def __init__(self, path: str):
        self.path = path
        fd_read, fd_write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the reader: never returns
            try:
                os.close(fd_read)
                try:
                    message = read_terms(path)
                except UsageError as exc:
                    message = str(exc)
                with os.fdopen(fd_write, "wb") as fh:
                    marshal.dump(message, fh)
            finally:
                os._exit(0)
        os.close(fd_write)
        self._pid: int | None = pid
        self._fd: int | None = fd_read

    def take(self, path: str) -> tuple[bytes, bytes, bool] | None:
        """read_terms(path) as the reader read it, or None when it read
        another path or its message does not load whole.  Raises the
        reader's UsageError.  Ends the reader either way."""
        try:
            if path != self.path:
                return None
            with os.fdopen(self._fd, "rb", closefd=False) as fh:
                message = marshal.load(fh)
        except (EOFError, ValueError, TypeError):
            return None
        finally:
            self.close()
        if isinstance(message, str):
            raise UsageError(message)
        return message

    def close(self) -> None:
        """Kill and reap the reader (harmless once it has exited); close the pipe."""
        if self._pid is not None:
            import signal

            pid, self._pid = self._pid, None
            try:
                os.kill(pid, signal.SIGKILL)  # a zombie until reaped
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # the system reaped it (SIGCHLD ignored)
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


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
