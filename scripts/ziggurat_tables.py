#!/usr/bin/env python3
"""Read numpy's ziggurat tables for standard normals out of its static library.

``entspace.normals`` draws numpy's standard normals in plain Python, with
numpy's own tables ``ki_double``, ``wi_double`` and ``fi_double`` (256
entries of 8 bytes each).  Those doubles cannot be recomputed bit for bit
from the ziggurat's recurrence, so the module holds them as data; this
script shows where that data comes from.  It reads the three tables from
the member ``src_distributions_distributions.c.o`` of the installed numpy's
``numpy/random/lib/libnpyrandom.a``, with a reader of ar archives and ELF
objects that uses the standard library alone (numpy is located, not
imported).  With no flag it prints the tables as the lines of the module's
hex literal: ``ki_double`` (uint64), then ``wi_double`` and ``fi_double``
(double), all little-endian.  ``--check`` compares them with the committed
tables and exits 1 if they differ, 2 if there is no archive to read.  The
tables are numpy's (BSD-3-Clause licence).

    python scripts/ziggurat_tables.py
    python scripts/ziggurat_tables.py --check
"""

import argparse
import importlib.util
import struct
import sys
from pathlib import Path

MEMBER = "src_distributions_distributions.c.o"
TABLES = ("ki_double", "wi_double", "fi_double")
TABLE_BYTES = 256 * 8
HEX_PER_LINE = 64


def archive_path() -> Path:
    """numpy's static random library, found without importing numpy."""
    spec = importlib.util.find_spec("numpy")
    if spec is None or spec.origin is None:
        raise FileNotFoundError("numpy is not installed")
    return Path(spec.origin).parent / "random" / "lib" / "libnpyrandom.a"


def ar_member(data: bytes, name: str) -> bytes:
    """The member ``name`` of a System V (GNU) ar archive."""
    if not data.startswith(b"!<arch>\n"):
        raise ValueError("not an ar archive")
    pos, long_names = 8, b""
    while pos + 60 <= len(data):
        header = data[pos:pos + 60]
        if header[58:60] != b"`\n":
            raise ValueError(f"bad ar header at byte {pos}")
        raw = header[:16].decode("ascii").rstrip()
        size = int(header[48:58].decode("ascii"))
        body = data[pos + 60:pos + 60 + size]
        pos += 60 + size + size % 2
        if raw == "//":
            long_names = body
            continue
        if raw.startswith("/") and raw[1:].isdigit():  # an offset into "//"
            start = int(raw[1:])
            raw = long_names[start:long_names.index(b"\n", start)].decode("ascii")
        if raw.rstrip("/") == name:
            return body
    raise KeyError(f"no member {name} in the archive")


def elf_symbols(obj: bytes, names) -> dict[str, bytes]:
    """The bytes of each named data symbol of a little-endian ELF64 object."""
    if obj[:4] != b"\x7fELF" or obj[4] != 2 or obj[5] != 1:
        raise ValueError("not a little-endian ELF64 object")
    shoff, = struct.unpack_from("<Q", obj, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", obj, 0x3A)
    # name, type, flags, addr, offset, size, link, info, addralign, entsize
    sections = [struct.unpack_from("<IIQQQQIIQQ", obj, shoff + i * shentsize)
                for i in range(shnum)]
    found = {}
    for sh in sections:
        if sh[1] != 2:  # SHT_SYMTAB
            continue
        strtab = sections[sh[6]]
        for off in range(sh[4], sh[4] + sh[5], 24):
            st_name, _, _, shndx, value, size = struct.unpack_from("<IBBHQQ", obj, off)
            start = strtab[4] + st_name
            symbol = obj[start:obj.index(b"\0", start)].decode("ascii")
            if symbol in names:
                where = sections[shndx][4] + value
                found[symbol] = obj[where:where + size]
    missing = [name for name in names if name not in found]
    if missing:
        raise KeyError(f"symbols {missing} not in the object")
    return found


def numpy_tables(path: Path) -> bytes:
    """``ki_double``, ``wi_double`` and ``fi_double`` of the archive, in turn."""
    found = elf_symbols(ar_member(path.read_bytes(), MEMBER), TABLES)
    for name in TABLES:
        if len(found[name]) != TABLE_BYTES:
            raise ValueError(f"{name} holds {len(found[name])} bytes, not {TABLE_BYTES}")
    return b"".join(found[name] for name in TABLES)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the tables entspace.normals holds")
    args = ap.parse_args(argv)
    path = archive_path()
    if not path.is_file():
        ap.error(f"no archive at {path}")
    data = numpy_tables(path)
    if not args.check:
        for i, name in enumerate(TABLES):
            text = data[i * TABLE_BYTES:(i + 1) * TABLE_BYTES].hex()
            print(f"    # {name}")
            for j in range(0, len(text), HEX_PER_LINE):
                print(f'    "{text[j:j + HEX_PER_LINE]}"')
        return 0
    from entspace.normals import _TABLES
    if data == _TABLES:
        print(f"the committed tables match {path}")
        return 0
    for i, name in enumerate(TABLES):
        part = slice(i * TABLE_BYTES, (i + 1) * TABLE_BYTES)
        if data[part] != _TABLES[part]:
            print(f"{name} differs from {path}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
