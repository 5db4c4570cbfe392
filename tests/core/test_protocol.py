"""Tests for the standard CSname request format (paper Sec. 5.3)."""

import pytest

from repro.core.names import MAX_NAME_BYTES
from repro.core.protocol import (
    CSNameHeader,
    csname_request_codes,
    is_csname_request,
    make_csname_request,
    read_csname_header,
    register_csname_request,
    rewrite_for_forward,
)
from repro.kernel.messages import Message, RequestCode


class TestMakeRequest:
    def test_standard_fields_present(self):
        message = make_csname_request(RequestCode.OPEN_FILE,
                                      "users/mann/naming.mss", 3, mode="r")
        assert message.fields["context_id"] == 3
        assert message.fields["name_index"] == 0
        assert message.fields["name_length"] == len(b"users/mann/naming.mss")
        assert message.fields["mode"] == "r"
        assert message.segment == b"users/mann/naming.mss"

    def test_name_ships_in_the_fixed_buffer(self):
        # The fixed 256-byte buffer is what remote Open timing rests on.
        message = make_csname_request(RequestCode.OPEN_FILE, "short", 0)
        assert message.segment_buffer == MAX_NAME_BYTES
        assert message.segment_wire_bytes == MAX_NAME_BYTES

    def test_variant_fields_cannot_clash_with_header(self):
        with pytest.raises(ValueError, match="clash"):
            make_csname_request(RequestCode.OPEN_FILE, "x", 0, name_length=9)

    def test_bad_name_index_rejected(self):
        with pytest.raises(ValueError):
            make_csname_request(RequestCode.OPEN_FILE, "abc", 0, name_index=9)

    def test_empty_name_is_legal(self):
        message = make_csname_request(RequestCode.OPEN_DIRECTORY, "", 0)
        assert message.fields["name_length"] == 0


class TestHeaderRead:
    def test_roundtrip(self):
        message = make_csname_request(RequestCode.QUERY_NAME, "a/b", 7,
                                      name_index=2)
        header = read_csname_header(message)
        assert header == CSNameHeader(name=b"a/b", name_index=2, context_id=7)
        assert header.remaining == b"b"

    def test_missing_segment_rejected(self):
        message = Message.request(RequestCode.QUERY_NAME, context_id=0,
                                  name_index=0, name_length=0)
        with pytest.raises(ValueError):
            read_csname_header(message)

    def test_length_field_bounds_the_name(self):
        # A stale longer buffer must not leak past name_length.
        message = make_csname_request(RequestCode.QUERY_NAME, "abcdef", 0)
        message.fields["name_length"] = 3
        assert read_csname_header(message).name == b"abc"

    @pytest.mark.parametrize("field, value", [
        ("context_id", None), ("context_id", False), ("context_id", 1.0),
        ("name_index", None), ("name_index", -3), ("name_index", 2.5),
        ("name_index", 7), ("name_length", None), ("name_length", True),
        ("name_length", -1), ("name_length", 7),
    ])
    def test_malformed_header_is_a_value_error(self, field, value):
        # Only ints, with 0 <= name_index <= name_length <= len(segment):
        # anything else would be interpreted (or crash the server).
        message = make_csname_request(RequestCode.QUERY_NAME, "a/b", 7,
                                      name_index=2)
        message.fields[field] = value
        with pytest.raises(ValueError):
            read_csname_header(message)

    def test_index_may_sit_at_the_end_of_the_name(self):
        message = make_csname_request(RequestCode.QUERY_NAME, "a/b", 7,
                                      name_index=3)
        assert read_csname_header(message).remaining == b""


class TestForwardRewrite:
    def test_rewrites_only_the_standard_fields(self):
        message = make_csname_request(RequestCode.OPEN_FILE, "[home]x/y", 0,
                                      mode="w")
        rewritten = rewrite_for_forward(message, context_id=0xFFF1,
                                        name_index=6)
        assert rewritten.fields["context_id"] == 0xFFF1
        assert rewritten.fields["name_index"] == 6
        assert rewritten.fields["mode"] == "w"          # variant untouched
        assert rewritten.code == message.code
        assert rewritten.segment == message.segment

    def test_original_message_unmodified(self):
        message = make_csname_request(RequestCode.OPEN_FILE, "x", 5)
        rewrite_for_forward(message, 9, 1)
        assert message.fields["context_id"] == 5
        assert message.fields["name_index"] == 0


class TestCodeRegistry:
    def test_standard_codes_are_csname_requests(self):
        for code in (RequestCode.OPEN_FILE, RequestCode.QUERY_NAME,
                     RequestCode.NAME_TO_CONTEXT, RequestCode.DELETE_NAME):
            assert is_csname_request(Message.request(code))

    def test_instance_ops_are_not(self):
        assert not is_csname_request(Message.request(RequestCode.READ_INSTANCE))
        assert not is_csname_request(Message.request(RequestCode.GET_TIME))

    def test_servers_can_register_new_csname_codes(self):
        # "there is no limit to the number of request message types that
        # may contain CSnames" (Sec. 5.7)
        code = register_csname_request(0x7777)
        assert code == 0x7777
        assert is_csname_request(Message.request(0x7777))
        assert 0x7777 in csname_request_codes()

    def test_mail_codes_registered_on_import(self):
        import repro.servers.mailserver  # noqa: F401

        assert is_csname_request(Message.request(RequestCode.MAIL_DELIVER))
        assert is_csname_request(Message.request(RequestCode.MAIL_CHECK))
