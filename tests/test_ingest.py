"""Raw log parsing, manifests and corpus loading."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tracesvm import (
    CorpusManifest,
    EmptyTraceError,
    ManifestError,
    SyscallTrace,
    extract_call_name,
    load_corpus,
    parse_trace,
    read_manifest,
    read_trace_file,
    write_manifest,
    write_processed,
)

from oracles import per_line_calls

RAW_EXCERPT = """\
NtQueryPerformanceCounter( Counter=0xbcf6c8 [1.45779e+009], Freq=null ) => 0
NtProtectVirtualMemory( ProcessHandle=-1, BaseAddress=0xbcf6f4 [0x77eae000], Size=0xbcf6f8 [4096], NewProtect=PAGE_EXECUTE_READWRITE, OldProtect=0xbcf6dc [PAGE_EXECUTE_WRITECOPY?]
NtProtectVirtualMemory( ProcessHandle=-1, BaseAddress=0xbcf6f4 [0x7702e000]?
NtQuerySystemInformation( SystemInformationClass=0 [SystemBasicInformation], SystemInformation=0xbcf5f4, SystemInformationLength=44, ReturnLength=null ) => 0
NtQueryVirtualMemory( ProcessHandle=-1, BaseAddress=0x76f20000,
"""

UNLOAD_MIX = """\
Unload of DLL at 04ED0000
Unload of DLL at 04FC0000
NtQueryPerformanceCounter( Counter=0x4e9f9c8 [3.01683e+009], Freq=null ) => 0
NtProtectVirtualMemory( ProcessHandle=-1, BaseAddress=0x4e9f9f4 [0x77eae000], Size=0x4e9f9f8
"""


# Characters that str.splitlines breaks at and bytes.splitlines does not.
NON_LF_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
LINE_BREAKS_IN_PARAMETERS = [c.encode("utf-8") for c in NON_LF_BREAKS]
LOG_FRAGMENTS = st.sampled_from(
    [b"Nt", b"nt", b"NT", b"Close", b"OpenKeyEx", b"_1", b"(", b")", b" ", b"\t", b"=", b"=> 0",
     b"\n", b"\r", b"\r\n", b"\xc3\xa9", b"\xe2\x82\xac", b"Unload of DLL"]
) | st.text(st.characters(codec="utf-8", blacklist_characters=NON_LF_BREAKS), max_size=3).map(str.encode)


class TestExtractCallName:
    def test_basic_call_line(self):
        line = "NtCreateFile( FileHandle=0x12f0c4, DesiredAccess=GENERIC_READ ) => 0"
        assert extract_call_name(line) == "ntcreatefile"

    def test_informational_line(self):
        assert extract_call_name("Unload of DLL at 04ED0000") is None

    def test_blank_and_garbage(self):
        assert extract_call_name("") is None
        assert extract_call_name("   ") is None
        assert extract_call_name("0x77eae000, Size=0xbcf6f8") is None

    def test_truncated_parameters_keep_the_name(self):
        assert (
            extract_call_name("NtProtectVirtualMemory( ProcessHandle=-1, BaseAddress=0xbcf6f4 [0x7702e000]?")
            == "ntprotectvirtualmemory"
        )

    def test_leading_whitespace_ok(self):
        assert extract_call_name("  \tNtClose( Handle=0x1 ) => 0") == "ntclose"

    def test_space_before_paren_rejected(self):
        assert extract_call_name("NtClose ( Handle=0x1 )") is None

    def test_prefix_casing(self):
        # lowercase processed form re-parses; other casings are not calls
        assert extract_call_name("ntclose(") == "ntclose"
        assert extract_call_name("NTCLOSE(") is None
        assert extract_call_name("nTClose(") is None

    def test_bare_prefix_edge(self):
        assert extract_call_name("Nt(") == "nt"

    def test_name_alone_on_line_is_a_call(self):
        # processed files carry one bare name per line
        assert extract_call_name("ntqueryperformancecounter") == "ntqueryperformancecounter"
        assert extract_call_name("ntclose \t") == "ntclose"
        assert extract_call_name("NTCLOSE") is None
        assert extract_call_name("ntclose => 0") is None

    @given(st.text(max_size=80))
    def test_fuzz_output_invariants(self, line):
        name = extract_call_name(line)
        if name is not None:
            assert name.startswith("nt")
            assert name == name.lower()
            assert " " not in name


class TestParseTrace:
    def test_five_line_excerpt(self):
        trace = parse_trace(RAW_EXCERPT, "excerpt")
        assert len(trace) == 5
        assert trace.calls[0] == "ntqueryperformancecounter"
        assert trace.calls[-1] == "ntqueryvirtualmemory"

    def test_unload_lines_dropped(self):
        trace = parse_trace(UNLOAD_MIX, "mix")
        assert trace.calls == ("ntqueryperformancecounter", "ntprotectvirtualmemory")

    def test_crlf_equivalent(self):
        a = parse_trace(UNLOAD_MIX, "lf")
        b = parse_trace(UNLOAD_MIX.replace("\n", "\r\n"), "crlf")
        assert a.calls == b.calls

    def test_no_calls_raises(self):
        with pytest.raises(EmptyTraceError):
            parse_trace("Unload of DLL at 04ED0000\n\n", "empty")

    def test_round_trip_idempotence(self):
        trace = parse_trace(RAW_EXCERPT, "excerpt")
        rendered = "\n".join(f"{name}(" for name in trace.calls)
        again = parse_trace(rendered, "rendered")
        assert again.calls == trace.calls

    @given(st.text(max_size=300))
    def test_any_text_parses_or_raises_empty_trace(self, text):
        try:
            trace = parse_trace(text, "fuzz")
        except EmptyTraceError:
            return
        assert isinstance(trace, SyscallTrace)
        assert trace.calls and all(name.startswith("nt") for name in trace.calls)

    def test_label_attachment(self, tmp_path):
        trace = parse_trace(RAW_EXCERPT, "excerpt")
        assert trace.label is None
        p = tmp_path / "excerpt.log"
        p.write_text(RAW_EXCERPT)
        labeled = read_trace_file(p, label="malicious")
        assert labeled.label == "malicious"
        assert labeled.calls == trace.calls
        with pytest.raises(ManifestError):
            read_trace_file(p, label="suspicious")


class TestFiles:
    def test_read_trace_file_skips_undecodable_lines(self, tmp_path):
        p = tmp_path / "partial.log"
        p.write_bytes(
            b"NtClose( Handle=0x1 ) => 0\n"
            b"\xff\xfe garbage NtOpenKeyEx(\n"
            b"NtCreateFile( FileHandle=0x2 ) => 0\n"
        )
        trace = read_trace_file(p)
        assert trace.calls == ("ntclose", "ntcreatefile")

    def test_bytes_outside_ascii_keep_the_call(self, tmp_path):
        # A cp1252 file name in a parameter: the line is not UTF-8.
        p = tmp_path / "cp1252.log"
        p.write_bytes(
            b"NtClose( Handle=0x1 ) => 0\n"
            b'NtCreateFile( ObjectAttributes="C:\\caf\xe9.txt" ) => 0\n'
            b"NtOpenKeyEx( Key=0x2 ) => 0\n"
        )
        assert read_trace_file(p).calls == ("ntclose", "ntcreatefile", "ntopenkeyex")

    @pytest.mark.parametrize("brk", LINE_BREAKS_IN_PARAMETERS, ids=lambda b: b.hex())
    def test_lines_break_only_at_lf_and_cr(self, tmp_path, brk):
        p = tmp_path / "param.log"
        p.write_bytes(b'NtClose( Name="a' + brk + b'NtOpenKeyEx(" ) => 0\n')
        assert read_trace_file(p).calls == ("ntclose",)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(LOG_FRAGMENTS, max_size=40).map(b"".join))
    @example(b"NtClose(\r\n\r\nntopenkeyex \r\tNtFoo\n")
    @example(b"\xc3\xa9NtClose(\nNtClose\xc3\xa9(\n Nt_1\t\r\n")
    def test_one_pass_reads_what_the_per_line_reader_reads(self, raw):
        # Where a line is not UTF-8 or holds another break, the readers differ by design.
        text = raw.decode("utf-8", errors="replace")
        assume("\ufffd" not in text and not set(text) & set(NON_LF_BREAKS))
        expected = per_line_calls(raw)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.log"
            path.write_bytes(raw)
            if not expected:
                with pytest.raises(EmptyTraceError, match="no system calls found in .*fuzz.log"):
                    read_trace_file(path)
                return
            assert read_trace_file(path).calls == expected

    def test_write_processed_round_trip(self, tmp_path):
        trace = parse_trace(RAW_EXCERPT, "excerpt")
        out = tmp_path / "processed.txt"
        write_processed(trace, out)
        assert out.read_bytes().endswith(b"\n")
        assert b"\r" not in out.read_bytes()
        again = read_trace_file(out)
        assert again.calls == trace.calls

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.log"
        with pytest.raises(OSError) as err:
            read_trace_file(missing)
        assert "nope.log" in str(err.value)

    def test_empty_file_names_path(self, tmp_path):
        p = tmp_path / "hollow.log"
        p.write_text("just noise\n")
        with pytest.raises(EmptyTraceError) as err:
            read_trace_file(p)
        assert "hollow.log" in str(err.value)


class TestManifest:
    def _write_corpus(self, tmp_path):
        (tmp_path / "a.log").write_text("NtClose( Handle=1 ) => 0\nNtOpenKeyEx( K=2 ) => 0\n")
        (tmp_path / "b.log").write_text("NtCreateFile( F=3 ) => 0\n")
        write_manifest([("a.log", "malicious"), ("b.log", "benign")], tmp_path / "manifest.csv")
        return tmp_path / "manifest.csv"

    def test_round_trip(self, tmp_path):
        mpath = self._write_corpus(tmp_path)
        manifest = read_manifest(mpath)
        assert isinstance(manifest, CorpusManifest)
        assert [label for _, label in manifest.entries] == ["malicious", "benign"]
        assert [p.name for p, _ in manifest.entries] == ["a.log", "b.log"]

    def test_load_corpus_order_and_labels(self, tmp_path):
        manifest = read_manifest(self._write_corpus(tmp_path))
        corpus = load_corpus(manifest)
        assert [t.label for t in corpus] == ["malicious", "benign"]
        assert corpus[0].calls == ("ntclose", "ntopenkeyex")
        assert corpus[1].calls == ("ntcreatefile",)
        assert all(isinstance(t, SyscallTrace) for t in corpus)

    def test_bad_label_rejected(self, tmp_path):
        bad = tmp_path / "manifest.csv"
        bad.write_text("path,label\nx.log,weird\n")
        with pytest.raises(ManifestError):
            read_manifest(bad)

    def test_duplicate_path_rejected(self, tmp_path):
        bad = tmp_path / "manifest.csv"
        bad.write_text("path,label\nx.log,benign\nx.log,malicious\n")
        with pytest.raises(ManifestError):
            read_manifest(bad)

    def test_wrong_header_rejected(self, tmp_path):
        bad = tmp_path / "manifest.csv"
        bad.write_text("file,class\nx.log,benign\n")
        with pytest.raises(ManifestError):
            read_manifest(bad)

    @pytest.mark.parametrize("body", [b"", b"\n\n"], ids=["header-only", "blank-rows"])
    def test_manifest_without_entries_rejected(self, tmp_path, body):
        bad = tmp_path / "manifest.csv"
        bad.write_bytes(b"path,label\n" + body)
        with pytest.raises(ManifestError, match=f"^{bad}: no entries$"):
            read_manifest(bad)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.text(max_size=12), st.sampled_from(["benign", "malicious"])), max_size=6))
    @example([("a,b.log", "benign")])
    @example([('"q.log', "malicious"), ('a"b.log', "benign")])
    @example([(" s.log", "benign")])
    @example([("a\nb.log", "benign")])
    @example([])
    def test_written_manifest_reads_back_or_is_refused(self, entries):
        raw_paths = [p for p, _ in entries]
        refused = (
            not entries
            or len(set(raw_paths)) < len(raw_paths)
            or any(p != p.strip() or set(p) & set("\0\r\n") for p in raw_paths)
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "manifest.csv"
            if refused:
                with pytest.raises(ManifestError, match=f"^{path}: "):
                    write_manifest(entries, path)
                assert not path.exists()
                return
            write_manifest(entries, path)
            assert read_manifest(path).entries == tuple((Path(tmp) / p, label) for p, label in entries)

    def test_path_not_encodable_as_utf8_is_refused(self, tmp_path):
        # os.fsdecode gives a lone surrogate for a non-UTF-8 file name.
        path = tmp_path / "manifest.csv"
        with pytest.raises(ManifestError, match=r"path 'a\\udcff\.log' is not encodable as UTF-8"):
            write_manifest([("b.log", "malicious"), ("a\udcff.log", "benign")], path)
        assert not path.exists()

    def test_plain_paths_are_written_unquoted(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_manifest([("trace_0000.txt", "malicious"), ("sub/b.log", "benign")], path)
        assert path.read_bytes() == b"path,label\ntrace_0000.txt,malicious\nsub/b.log,benign\n"

    @pytest.mark.parametrize(
        "body",
        [
            b"x.log,benign\n\xff.log,benign\n",
            b"x.log,benign\n" + b"y" * 131073 + b",benign\n",
            b"x.log,benign\nx\x00.log,benign\n",
        ],
        ids=["not-utf8", "over-long-field", "nul-in-path"],
    )
    def test_unreadable_row_names_file_and_line(self, tmp_path, body):
        bad = tmp_path / "manifest.csv"
        bad.write_bytes(b"path,label\n" + body)
        with pytest.raises(ManifestError, match="manifest.csv:3: "):
            read_manifest(bad)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from([b",", b"\n", b"\r", b'"', b"\x00", b"\xff", b"benign", b"malicious"])
            | st.binary(max_size=8),
            max_size=30,
        ).map(b"".join)
    )
    @example(b"a.log,benign\n" * 2)
    @example(b"\x00,benign\n")
    def test_any_bytes_after_header_read_or_raise_manifest_error(self, body):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "manifest.csv"
            path.write_bytes(b"path,label\n" + body)
            try:
                manifest = read_manifest(path)
            except ManifestError as exc:
                assert str(exc).startswith(str(path))
                return
            for p, label in manifest.entries:
                assert label in ("benign", "malicious")
                assert "\x00" not in str(p)

    def test_missing_trace_file_surfaces_path(self, tmp_path):
        m = tmp_path / "manifest.csv"
        write_manifest([("ghost.log", "benign")], m)
        with pytest.raises(OSError) as err:
            load_corpus(read_manifest(m))
        assert "ghost.log" in str(err.value)
