#!/usr/bin/env python3
"""Read numpy's exponential ziggurat tables and write ``src/optshare/_ziggurat.py``.

Usage: python scripts/ziggurat_tables.py

numpy's ``standard_exponential`` draws by the 256-layer ziggurat (Marsaglia
and Tsang, 2000) with three tables it does not expose: ``we_double`` (the
layer widths), ``ke_double`` (the fast-path acceptance bounds) and
``fe_double`` (the density at each layer's edge).  The published recurrence
does not reproduce them bit for bit, so they are read from the installed
numpy's static library, ``numpy/random/lib/libnpyrandom.a``: the script
parses the ar archive and the ELF64 symbol table of its
``distributions.c`` object with ``struct`` and needs no binutils.
"""

import os
import struct
import sys

MEMBER = "src_distributions_distributions.c.o"
SYMBOLS = {"we": ("we_double", "d"), "ke": ("ke_double", "Q"), "fe": ("fe_double", "d")}
LAYERS = 256
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "optshare", "_ziggurat.py")


def archive_path() -> str:
    import numpy

    return os.path.join(os.path.dirname(numpy.__file__), "random", "lib", "libnpyrandom.a")


def ar_member(data: bytes, name: str) -> bytes:
    """The contents of member ``name`` of a System V (GNU) ar archive."""
    if not data.startswith(b"!<arch>\n"):
        raise ValueError("not an ar archive")
    pos, long_names = 8, b""
    while pos + 60 <= len(data):
        header = data[pos : pos + 60]
        raw, size = header[:16].decode().rstrip(), int(header[48:58])
        body = data[pos + 60 : pos + 60 + size]
        pos += 60 + size + (size & 1)  # members are 2-byte aligned
        if raw == "//":  # the long-name table
            long_names = body
            continue
        if raw.startswith("/") and raw[1:].isdigit():  # an offset into the long-name table
            start = int(raw[1:])
            raw = long_names[start : long_names.index(b"\n", start)].decode()
        if raw.rstrip("/") == name:
            return body
    raise ValueError(f"no member {name!r} in the archive")


def elf_symbols(obj: bytes, names) -> dict[str, bytes]:
    """The bytes of each named data symbol of a little-endian ELF64
    relocatable object: ``st_size`` bytes at ``st_value`` in its section."""
    if obj[:4] != b"\x7fELF" or obj[4] != 2 or obj[5] != 1:
        raise ValueError("not a little-endian ELF64 object")
    shoff, shentsize, shnum = struct.unpack_from("<Q", obj, 0x28)[0], *struct.unpack_from("<HH", obj, 0x3A)
    # (sh_type, sh_offset, sh_size, sh_link, sh_entsize) per section
    sections = []
    for i in range(shnum):
        _, sh_type, _, _, offset, size, link, _, _, entsize = struct.unpack_from("<IIQQQQIIQQ", obj, shoff + i * shentsize)
        sections.append((sh_type, offset, size, link, entsize))
    symtab = next(s for s in sections if s[0] == 2)  # SHT_SYMTAB
    _, offset, size, link, entsize = symtab
    strtab = sections[link][1]
    found = {}
    for at in range(offset, offset + size, entsize):
        st_name, _, _, st_shndx, st_value, st_size = struct.unpack_from("<IBBHQQ", obj, at)
        name = obj[strtab + st_name : obj.index(b"\0", strtab + st_name)].decode()
        if name in names:
            start = sections[st_shndx][1] + st_value
            found[name] = obj[start : start + st_size]
    missing = set(names) - set(found)
    if missing:
        raise ValueError(f"symbols not found: {sorted(missing)}")
    return found


def read_tables(path: str) -> dict[str, tuple]:
    """``{"we": ..., "ke": ..., "fe": ...}``, 256 entries each, from numpy's
    static library at ``path``."""
    with open(path, "rb") as fh:
        obj = ar_member(fh.read(), MEMBER)
    raw = elf_symbols(obj, [symbol for symbol, _ in SYMBOLS.values()])
    tables = {}
    for key, (symbol, code) in SYMBOLS.items():
        if len(raw[symbol]) != 8 * LAYERS:
            raise ValueError(f"{symbol}: {len(raw[symbol])} bytes, expected {8 * LAYERS}")
        tables[key] = struct.unpack(f"<{LAYERS}{code}", raw[symbol])
    return tables


def render(tables: dict[str, tuple], version: str) -> str:
    """The generated module: each table as a tuple literal, four entries a
    line.  ``repr`` of a float reads back as the same double."""
    lines = [
        f'"""numpy {version}\'s exponential ziggurat tables, read from its libnpyrandom.a.',
        "",
        "Generated by scripts/ziggurat_tables.py; do not edit.",
        '"""',
    ]
    for key, values in tables.items():
        lines += ["", f"{key.upper()} = ("]
        for i in range(0, LAYERS, 4):
            lines.append("    " + " ".join(f"{v!r}," for v in values[i : i + 4]))
        lines.append(")")
    return "\n".join(lines) + "\n"


def main() -> int:
    import numpy

    text = render(read_tables(archive_path()), numpy.__version__)
    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(os.path.normpath(OUT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
