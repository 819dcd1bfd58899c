"""The exact 400 bodies of every request envelope, pinned byte for byte.

One row per distinct validation message of each envelope the server
parses: the v1 search, PUT, bulk, DELETE and ingest bodies, the v1 and
jobs listings, ``/auth``, the Table-3 add, search and run bodies and
``/engines/{user}/register``.  Each row is a route and a body, and the
status and JSON text the server answers (the bytes the HTTP front end
writes, ``json.dumps`` of the body).  A change to any validation
message, its ``params`` or its ``details`` shows up here.
"""

import base64
import json

import pytest

from repro.net.transport import Request
from repro.server import LaminarServer
from repro.server.schema import encode_cursor

#: a lone surrogate, as ``json.loads`` hands it over
LONE = json.loads('"x\\ud800"')
#: the first integer outside SQLite's 64 bits
WIDE = 2**63
#: a well-formed cursor minted by another listing
CURSOR = encode_cursor("users", 1)
#: a cursor whose payload is a negative position
NEG = "v1." + base64.urlsafe_b64encode(b'{"s":"pes:1","a":-1}').decode()

#: request headers of the rows that carry any
HEADERS = {"put-idempotency-header": {"Idempotency-Key": ""}}

#: (id, method, path, body, status, JSON text of the reply)
PINS = [
    (
        "search-not-object", "POST", "/v1/registry/u/search", [1],
        400,
        '{"error": "ValidationError", "code": 400, "message": "search'
        ' request must be a JSON object, got list"}',
    ),
    (
        "search-unknown-field", "POST", "/v1/registry/u/search", {"query": "q", "bogus": 1},
        400,
        '{"error": "ValidationError", "code": 400, "message": "unknow'
        'n field(s) in search request: bogus", "params": {"unknownFie'
        'lds": "[\'bogus\']"}, "details": "allowed fields: backend, cur'
        'sor, k, kind, limit, query, queryEmbedding, queryType"}',
    ),
    (
        "search-query-missing", "POST", "/v1/registry/u/search", {},
        400,
        '{"error": "ValidationError", "code": 400, "message": "query '
        'is required and must be a non-empty string", "params": {"que'
        'ry": "None"}}',
    ),
    (
        "search-query-lone-surrogate", "POST", "/v1/registry/u/search", {"query": LONE},
        400,
        '{"error": "ValidationError", "code": 400, "message": "query '
        'is not valid Unicode text: a lone surrogate at offset 1", "p'
        'arams": {"field": "\'query\'", "offset": "1"}}',
    ),
    (
        "search-kind", "POST", "/v1/registry/u/search", {"query": "q", "kind": "x"},
        400,
        '{"error": "ValidationError", "code": 400, "message": "kind m'
        'ust be one of pe, workflow, both; got \'x\'", "params": {"kind'
        '": "\'x\'"}}',
    ),
    (
        "search-query-type", "POST", "/v1/registry/u/search", {"query": "q", "queryType": 5},
        400,
        '{"error": "ValidationError", "code": 400, "message": "queryT'
        'ype must be one of text, semantic, code, hybrid; got 5", "pa'
        'rams": {"queryType": "5"}}',
    ),
    (
        "search-backend", "POST", "/v1/registry/u/search", {"query": "q", "backend": "ivf"},
        400,
        '{"error": "ValidationError", "code": 400, "message": "unknow'
        'n index backend \'ivf\'", "params": {"backend": "\'ivf\'"}, "det'
        'ails": "registered backends: exact"}',
    ),
    (
        "search-k-zero", "POST", "/v1/registry/u/search", {"query": "q", "k": 0},
        400,
        '{"error": "ValidationError", "code": 400, "message": "k must'
        ' be a positive integer, got 0", "params": {"k": "0"}}',
    ),
    (
        "search-k-digit-string", "POST", "/v1/registry/u/search", {"query": "q", "k": "5"},
        400,
        '{"error": "ValidationError", "code": 400, "message": "k must'
        ' be a positive integer, got \'5\'", "params": {"k": "\'5\'"}}',
    ),
    (
        "search-k-wide", "POST", "/v1/registry/u/search", {"query": "q", "k": WIDE},
        400,
        '{"error": "ValidationError", "code": 400, "message": "k must'
        ' fit in 64 bits, got 9223372036854775808", "params": {"k": "'
        '9223372036854775808"}}',
    ),
    (
        "search-limit-type", "POST", "/v1/registry/u/search", {"query": "q", "limit": "x"},
        400,
        '{"error": "ValidationError", "code": 400, "message": "limit '
        'must be an integer, got \'x\'", "params": {"limit": "\'x\'"}}',
    ),
    (
        "search-limit-range", "POST", "/v1/registry/u/search", {"query": "q", "limit": 0},
        400,
        '{"error": "ValidationError", "code": 400, "message": "limit '
        'must be between 1 and 1000, got 0", "params": {"limit": "0"}'
        '}',
    ),
    (
        "search-limit-wide", "POST", "/v1/registry/u/search", {"query": "q", "limit": WIDE},
        400,
        '{"error": "ValidationError", "code": 400, "message": "limit '
        'must be between 1 and 1000, got 9223372036854775808", "param'
        's": {"limit": "9223372036854775808"}}',
    ),
    (
        "search-cursor-type", "POST", "/v1/registry/u/search", {"query": "q", "cursor": 5},
        400,
        '{"error": "ValidationError", "code": 400, "message": "cursor'
        ' must be a string, got int", "params": {"cursor": "5"}}',
    ),
    (
        "search-cursor-opaque", "POST", "/v1/registry/u/search", {"query": "q", "cursor": "bogus"},
        400,
        '{"error": "ValidationError", "code": 400, "message": "invali'
        'd cursor", "params": {"cursor": "\'bogus\'"}, "details": "curs'
        'ors are opaque v1 tokens minted by a listing response"}',
    ),
    (
        "search-cursor-undecodable", "POST", "/v1/registry/u/search", {"query": "q", "cursor": "v1.@@"},
        400,
        '{"error": "ValidationError", "code": 400, "message": "invali'
        'd cursor", "params": {"cursor": "\'v1.@@\'"}, "details": "unde'
        'codable cursor token: Expecting value: line 1 column 1 (char'
        ' 0)"}',
    ),
    (
        "search-cursor-scope", "POST", "/v1/registry/u/search", {"query": "q", "cursor": CURSOR},
        400,
        '{"error": "ValidationError", "code": 400, "message": "invali'
        'd cursor", "params": {"cursor": "\'v1.eyJzIjoidXNlcnMiLCJhIjo'
        'xfQ==\'"}, "details": "cursor was minted by \'users\', not \'sea'
        'rch:1:0045c084362c\'"}',
    ),
    (
        "search-embedding-type", "POST", "/v1/registry/u/search", {"query": "q", "queryEmbedding": "abc"},
        400,
        '{"error": "ValidationError", "code": 400, "message": "queryE'
        'mbedding must be a non-empty array of numbers", "params": {"'
        'queryEmbedding": "\'str\'"}}',
    ),
    (
        "search-embedding-bool", "POST", "/v1/registry/u/search", {"query": "q", "queryEmbedding": [1.0, True]},
        400,
        '{"error": "ValidationError", "code": 400, "message": "queryE'
        'mbedding must be a non-empty array of numbers", "params": {"'
        'queryEmbedding": "\'list\'"}}',
    ),
    (
        "search-embedding-width", "POST", "/v1/registry/u/search", {"query": "q", "queryType": "code", "queryEmbedding": [1.0, 2.0]},
        400,
        '{"error": "ValidationError", "code": 400, "message": "queryE'
        'mbedding must have 2048 dimensions, got 2", "params": {"quer'
        'yEmbeddingDim": "2"}}',
    ),
    (
        "put-not-object", "PUT", "/v1/registry/u/pes/p", [1],
        400,
        '{"error": "ValidationError", "code": 400, "message": "regist'
        'er request must be a JSON object, got list"}',
    ),
    (
        "put-unknown-field", "PUT", "/v1/registry/u/pes/p", {"peCode": "x", "bogus": 1},
        400,
        '{"error": "ValidationError", "code": 400, "message": "unknow'
        'n field(s) in register request: bogus", "params": {"unknownF'
        'ields": "[\'bogus\']"}, "details": "allowed fields: codeEmbedd'
        'ing, descEmbedding, description, descriptionOrigin, idempote'
        'ncyKey, ifVersion, peCode, peImports, peName, peSource"}',
    ),
    (
        "put-path-disagrees", "PUT", "/v1/registry/u/pes/p", {"peName": "q", "peCode": "x"},
        400,
        '{"error": "ValidationError", "code": 400, "message": "peName'
        ' in the body (\'q\') disagrees with the path segment (\'p\')", "'
        'params": {"peName": "\'q\'", "path": "\'p\'"}}',
    ),
    (
        "put-code-missing", "PUT", "/v1/registry/u/pes/p", {"peCode": " "},
        400,
        '{"error": "ValidationError", "code": 400, "message": "peCode'
        ' is required and must be a non-empty string in register requ'
        'est", "params": {"peCode": "\' \'"}}',
    ),
    (
        "put-code-lone-surrogate", "PUT", "/v1/registry/u/pes/p", {"peCode": LONE},
        400,
        '{"error": "ValidationError", "code": 400, "message": "peCode'
        ' is not valid Unicode text: a lone surrogate at offset 1", "'
        'params": {"field": "\'peCode\'", "offset": "1"}}',
    ),
    (
        "put-imports", "PUT", "/v1/registry/u/pes/p", {"peCode": "x", "peImports": ["a", 5]},
        400,
        '{"error": "ValidationError", "code": 400, "message": "peImpo'
        'rts must be an array of strings", "params": {"peImports": "['
        '\'a\', 5]"}}',
    ),
    (
        "put-description-type", "PUT", "/v1/registry/u/pes/p", {"peCode": "x", "description": None},
        400,
        '{"error": "ValidationError", "code": 400, "message": "descri'
        'ption must be a string, got NoneType", "params": {"descripti'
        'on": "None"}}',
    ),
    (
        "put-origin-type", "PUT", "/v1/registry/u/pes/p", {"peCode": "x", "descriptionOrigin": 5},
        400,
        '{"error": "ValidationError", "code": 400, "message": "descri'
        'ptionOrigin must be a string, got int", "params": {"descript'
        'ionOrigin": "5"}}',
    ),
    (
        "put-desc-embedding-type", "PUT", "/v1/registry/u/pes/p", {"peCode": "x", "descEmbedding": []},
        400,
        '{"error": "ValidationError", "code": 400, "message": "descEm'
        'bedding must be a non-empty array of numbers", "params": {"d'
        'escEmbedding": "\'list\'"}}',
    ),
    (
        "put-code-embedding-width", "PUT", "/v1/registry/u/pes/p", {"peCode": "x", "codeEmbedding": [1.0, 2.0]},
        400,
        '{"error": "ValidationError", "code": 400, "message": "codeEm'
        'bedding must have 2048 dimensions, got 2", "params": {"codeE'
        'mbeddingDim": "2"}}',
    ),
    (
        "put-if-version-negative", "PUT", "/v1/registry/u/pes/p", {"peCode": "x", "ifVersion": -1},
        400,
        '{"error": "ValidationError", "code": 400, "message": "ifVers'
        'ion must be a non-negative integer, got -1", "params": {"ifV'
        'ersion": "-1"}}',
    ),
    (
        "put-if-version-text", "PUT", "/v1/registry/u/pes/p", {"peCode": "x", "ifVersion": "+1"},
        400,
        '{"error": "ValidationError", "code": 400, "message": "ifVers'
        'ion must be a non-negative integer, got \'+1\'", "params": {"i'
        'fVersion": "\'+1\'"}}',
    ),
    (
        "put-idempotency-key-empty", "PUT", "/v1/registry/u/pes/p", {"peCode": "x", "idempotencyKey": " "},
        400,
        '{"error": "ValidationError", "code": 400, "message": "idempo'
        'tencyKey must be a non-empty string of at most 200 character'
        's", "params": {"idempotencyKey": "\' \'"}}',
    ),
    (
        "put-idempotency-key-long", "PUT", "/v1/registry/u/pes/p", {"peCode": "x", "idempotencyKey": "k" * 201},
        400,
        '{"error": "ValidationError", "code": 400, "message": "idempo'
        'tencyKey must be a non-empty string of at most 200 character'
        's", "params": {"idempotencyKey": "\'kkkkkkkkkkkkkkkkkkkkkkkkk'
        'kkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkk'
        'kkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkk'
        'kkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkk\'"}}',
    ),
    (
        "put-idempotency-header", "PUT", "/v1/registry/u/pes/p", {"peCode": "x"},
        400,
        '{"error": "ValidationError", "code": 400, "message": "idempo'
        'tencyKey must be a non-empty string of at most 200 character'
        's", "params": {"idempotencyKey": "\'\'"}}',
    ),
    (
        "put-workflow-path-disagrees", "PUT", "/v1/registry/u/workflows/w", {"entryPoint": "z", "workflowCode": "g"},
        400,
        '{"error": "ValidationError", "code": 400, "message": "entryP'
        "oint in the body ('z') disagrees with the path segment ('w')"
        '", "params": {"entryPoint": "\'z\'", "path": "\'w\'"}}',
    ),
    (
        "put-workflow-code-missing", "PUT", "/v1/registry/u/workflows/w", {},
        400,
        '{"error": "ValidationError", "code": 400, "message": "workfl'
        'owCode is required and must be a non-empty string in registe'
        'r request", "params": {"workflowCode": "None"}}',
    ),
    (
        "put-workflow-pe-ids-type", "PUT", "/v1/registry/u/workflows/w", {"workflowCode": "g", "peIds": [1, "2"]},
        400,
        '{"error": "ValidationError", "code": 400, "message": "peIds '
        'must be an array of integers", "params": {"peIds": "[1, \'2\']'
        '"}}',
    ),
    (
        "put-workflow-pe-ids-wide", "PUT", "/v1/registry/u/workflows/w", {"workflowCode": "g", "peIds": [-WIDE - 1]},
        400,
        '{"error": "ValidationError", "code": 400, "message": "peIds '
        'must fit in 64 bits, got -9223372036854775809", "params": {"'
        'peIds": "[-9223372036854775809]"}}',
    ),
    (
        "put-workflow-name-type", "PUT", "/v1/registry/u/workflows/w", {"workflowCode": "g", "workflowName": 5},
        400,
        '{"error": "ValidationError", "code": 400, "message": "workfl'
        'owName must be a string, got int", "params": {"workflowName"'
        ': "5"}}',
    ),
    (
        "put-workflow-source-type", "PUT", "/v1/registry/u/workflows/w", {"workflowCode": "g", "workflowSource": ["s"]},
        400,
        '{"error": "ValidationError", "code": 400, "message": "workfl'
        'owSource must be a string, got list", "params": {"workflowSo'
        'urce": "[\'s\']"}}',
    ),
    (
        "bulk-not-object", "POST", "/v1/registry/u/pes:bulk", [1],
        400,
        '{"error": "ValidationError", "code": 400, "message": "bulk r'
        'egister request must be a JSON object, got list"}',
    ),
    (
        "bulk-unknown-field", "POST", "/v1/registry/u/pes:bulk", {"items": [], "bogus": 1},
        400,
        '{"error": "ValidationError", "code": 400, "message": "unknow'
        'n field(s) in bulk register request: bogus", "params": {"unk'
        'nownFields": "[\'bogus\']"}, "details": "allowed fields: idemp'
        'otencyKey, ifVersion, items"}',
    ),
    (
        "bulk-items-missing", "POST", "/v1/registry/u/pes:bulk", {},
        400,
        '{"error": "ValidationError", "code": 400, "message": "items '
        'is required and must be a non-empty array", "params": {"item'
        's": "\'NoneType\'"}}',
    ),
    (
        "bulk-items-too-many", "POST", "/v1/registry/u/pes:bulk", {"items": [{}] * 1001},
        400,
        '{"error": "ValidationError", "code": 400, "message": "items '
        'must contain at most 1000 entries, got 1001", "params": {"it'
        'ems": "1001"}}',
    ),
    (
        "bulk-item-not-object", "POST", "/v1/registry/u/pes:bulk", {"items": [{"peName": "a", "peCode": "x"}, 5]},
        400,
        '{"error": "ValidationError", "code": 400, "message": "items['
        '1] must be a JSON object, got int", "params": {"position": "'
        '1"}}',
    ),
    (
        "bulk-item-name-missing", "POST", "/v1/registry/u/pes:bulk", {"items": [{"peCode": "x"}]},
        400,
        '{"error": "ValidationError", "code": 400, "message": "peName'
        ' is required and must be a non-empty string in items[0]", "p'
        'arams": {"peName": "None"}}',
    ),
    (
        "bulk-item-meta-field", "POST", "/v1/registry/u/pes:bulk", {"items": [{"peName": "a", "peCode": "x", "ifVersion": 1}]},
        400,
        '{"error": "ValidationError", "code": 400, "message": "unknow'
        'n field(s) in items[0]: ifVersion", "params": {"unknownField'
        's": "[\'ifVersion\']"}, "details": "allowed fields: codeEmbedd'
        'ing, descEmbedding, description, descriptionOrigin, peCode, '
        'peImports, peName, peSource"}',
    ),
    (
        "bulk-if-version", "POST", "/v1/registry/u/pes:bulk", {"items": [{"peName": "a", "peCode": "x"}], "ifVersion": "x"},
        400,
        '{"error": "ValidationError", "code": 400, "message": "ifVers'
        'ion must be a non-negative integer, got \'x\'", "params": {"if'
        'Version": "\'x\'"}}',
    ),
    (
        "bulk-idempotency-key", "POST", "/v1/registry/u/pes:bulk", {"items": [{"peName": "a", "peCode": "x"}], "idempotencyKey": 5},
        400,
        '{"error": "ValidationError", "code": 400, "message": "idempo'
        'tencyKey must be a non-empty string of at most 200 character'
        's", "params": {"idempotencyKey": "5"}}',
    ),
    (
        "bulk-workflow-entry-point-missing", "POST", "/v1/registry/u/workflows:bulk", {"items": [{"workflowCode": "g"}]},
        400,
        '{"error": "ValidationError", "code": 400, "message": "entryP'
        'oint is required and must be a non-empty string in items[0]"'
        ', "params": {"entryPoint": "None"}}',
    ),
    (
        "bulk-workflow-item-pe-ids", "POST", "/v1/registry/u/workflows:bulk", {"items": [{"entryPoint": "w", "workflowCode": "g", "peIds": 7}]},
        400,
        '{"error": "ValidationError", "code": 400, "message": "peIds '
        'must be an array of integers", "params": {"peIds": "7"}}',
    ),
    (
        "delete-not-object", "DELETE", "/v1/registry/u/pes/p", [1],
        400,
        '{"error": "ValidationError", "code": 400, "message": "delete'
        ' request must be a JSON object, got list"}',
    ),
    (
        "delete-unknown-field", "DELETE", "/v1/registry/u/pes/p", {"bogus": 1},
        400,
        '{"error": "ValidationError", "code": 400, "message": "unknow'
        'n field(s) in delete request: bogus", "params": {"unknownFie'
        'lds": "[\'bogus\']"}, "details": "allowed fields: idempotencyK'
        'ey, ifVersion"}',
    ),
    (
        "delete-if-version", "DELETE", "/v1/registry/u/pes/p", {"ifVersion": True},
        400,
        '{"error": "ValidationError", "code": 400, "message": "ifVers'
        'ion must be a non-negative integer, got True", "params": {"i'
        'fVersion": "True"}}',
    ),
    (
        "delete-idempotency-key", "DELETE", "/v1/registry/u/workflows/w", {"idempotencyKey": ""},
        400,
        '{"error": "ValidationError", "code": 400, "message": "idempo'
        'tencyKey must be a non-empty string of at most 200 character'
        's", "params": {"idempotencyKey": "\'\'"}}',
    ),
    (
        "ingest-not-object", "POST", "/v1/registry/u/ingest", [1],
        400,
        '{"error": "ValidationError", "code": 400, "message": "ingest'
        ' request must be a JSON object, got list"}',
    ),
    (
        "ingest-unknown-field", "POST", "/v1/registry/u/ingest", {"path": "/x", "bogus": 1},
        400,
        '{"error": "ValidationError", "code": 400, "message": "unknow'
        'n field(s) in ingest request: bogus", "params": {"unknownFie'
        'lds": "[\'bogus\']"}, "details": "allowed fields: archive, bat'
        'chSize, maxChunkLines, maxFileBytes, path"}',
    ),
    (
        "ingest-path", "POST", "/v1/registry/u/ingest", {"path": " "},
        400,
        '{"error": "ValidationError", "code": 400, "message": "path m'
        'ust be a non-empty string", "params": {"path": "\' \'"}}',
    ),
    (
        "ingest-archive-type", "POST", "/v1/registry/u/ingest", {"archive": 5},
        400,
        '{"error": "ValidationError", "code": 400, "message": "archiv'
        'e must be a base64-encoded tarball string", "params": {"arch'
        'ive": "\'int\'"}}',
    ),
    (
        "ingest-archive-base64", "POST", "/v1/registry/u/ingest", {"archive": "a"},
        400,
        '{"error": "ValidationError", "code": 400, "message": "archiv'
        'e is not valid base64", "details": "Invalid base64-encoded s'
        'tring: number of data characters (1) cannot be 1 more than a'
        ' multiple of 4"}',
    ),
    (
        "ingest-no-source", "POST", "/v1/registry/u/ingest", {},
        400,
        '{"error": "ValidationError", "code": 400, "message": "exactl'
        'y one of path or archive is required", "params": {"path": "F'
        'alse", "archive": "False"}}',
    ),
    (
        "ingest-two-sources", "POST", "/v1/registry/u/ingest", {"path": "/x", "archive": "eA=="},
        400,
        '{"error": "ValidationError", "code": 400, "message": "exactl'
        'y one of path or archive is required", "params": {"path": "T'
        'rue", "archive": "True"}}',
    ),
    (
        "ingest-batch-size-type", "POST", "/v1/registry/u/ingest", {"path": "/x", "batchSize": "x"},
        400,
        '{"error": "ValidationError", "code": 400, "message": "batchS'
        'ize must be an integer, got \'x\'", "params": {"batchSize": "\''
        'x\'"}}',
    ),
    (
        "ingest-batch-size-range", "POST", "/v1/registry/u/ingest", {"path": "/x", "batchSize": 1001},
        400,
        '{"error": "ValidationError", "code": 400, "message": "batchS'
        'ize must be between 1 and 1000, got 1001", "params": {"batch'
        'Size": "1001"}}',
    ),
    (
        "ingest-max-file-bytes", "POST", "/v1/registry/u/ingest", {"path": "/x", "maxFileBytes": 0},
        400,
        '{"error": "ValidationError", "code": 400, "message": "maxFil'
        'eBytes must be between 1 and 10000000, got 0", "params": {"m'
        'axFileBytes": "0"}}',
    ),
    (
        "ingest-max-chunk-lines", "POST", "/v1/registry/u/ingest", {"path": "/x", "maxChunkLines": WIDE},
        400,
        '{"error": "ValidationError", "code": 400, "message": "maxChu'
        'nkLines must be between 10 and 2000, got 9223372036854775808'
        '", "params": {"maxChunkLines": "9223372036854775808"}}',
    ),
    (
        "listing-unknown-field", "GET", "/v1/users", {"bogus": 1},
        400,
        '{"error": "ValidationError", "code": 400, "message": "unknow'
        'n field(s) in listing request: bogus", "params": {"unknownFi'
        'elds": "[\'bogus\']"}, "details": "allowed fields: cursor, lim'
        'it"}',
    ),
    (
        "listing-limit-type", "GET", "/v1/registry/u/pes", {"limit": "abc"},
        400,
        '{"error": "ValidationError", "code": 400, "message": "limit '
        'must be an integer, got \'abc\'", "params": {"limit": "\'abc\'"}'
        '}',
    ),
    (
        "listing-cursor-type", "GET", "/v1/registry/u/pes", {"limit": None, "cursor": 5},
        400,
        '{"error": "ValidationError", "code": 400, "message": "cursor'
        ' must be a string, got int", "params": {"cursor": "5"}}',
    ),
    (
        "listing-limit-range", "GET", "/v1/registry/u/workflows", {"limit": 1001},
        400,
        '{"error": "ValidationError", "code": 400, "message": "limit '
        'must be between 1 and 1000, got 1001", "params": {"limit": "'
        '1001"}}',
    ),
    (
        "listing-limit-query-string", "GET", "/v1/users?limit=1_0", {},
        400,
        '{"error": "ValidationError", "code": 400, "message": "limit '
        'must be an integer, got \'1_0\'", "params": {"limit": "\'1_0\'"}'
        '}',
    ),
    (
        "listing-cursor-scope", "GET", "/v1/registry/u/pes", {"cursor": CURSOR},
        400,
        '{"error": "ValidationError", "code": 400, "message": "invali'
        'd cursor", "params": {"cursor": "\'v1.eyJzIjoidXNlcnMiLCJhIjo'
        'xfQ==\'"}, "details": "cursor was minted by \'users\', not \'pes'
        ':1\'"}',
    ),
    (
        "listing-cursor-position", "GET", "/v1/registry/u/pes", {"cursor": NEG},
        400,
        '{"error": "ValidationError", "code": 400, "message": "invali'
        'd cursor", "params": {"cursor": "\'v1.eyJzIjoicGVzOjEiLCJhIjo'
        'tMX0=\'"}, "details": "cursor payload is not a position"}',
    ),
    (
        "listing-workflow-pes-limit", "GET", "/v1/registry/u/workflows/1/pes", {"limit": "0"},
        400,
        '{"error": "ValidationError", "code": 400, "message": "limit '
        'must be between 1 and 1000, got 0", "params": {"limit": "0"}'
        '}',
    ),
    (
        "jobs-unknown-field", "GET", "/v1/jobs", {"bogus": 1},
        400,
        '{"error": "ValidationError", "code": 400, "message": "unknow'
        'n field(s) in jobs listing: bogus", "params": {"unknownField'
        's": "[\'bogus\']"}, "details": "allowed fields: limit, state"}',
    ),
    (
        "jobs-limit", "GET", "/v1/jobs", {"limit": None},
        400,
        '{"error": "ValidationError", "code": 400, "message": "limit '
        'must be an integer, got None", "params": {"limit": "None"}}',
    ),
    (
        "jobs-state", "GET", "/v1/jobs", {"state": "QUEUED"},
        400,
        '{"error": "ValidationError", "code": 400, "message": "state '
        'must be one of queued, running, succeeded, failed, cancelled'
        '; got \'QUEUED\'", "params": {"state": "\'QUEUED\'"}}',
    ),
    (
        "auth-register-lone-surrogate", "POST", "/auth/register", {"userName": LONE, "password": "pw"},
        400,
        '{"error": "ValidationError", "code": 400, "message": "userNa'
        'me is not valid Unicode text: a lone surrogate at offset 1",'
        ' "params": {"field": "\'userName\'", "offset": "1"}}',
    ),
    (
        "auth-login-lone-surrogate", "POST", "/auth/login", {"userName": "u", "password": LONE},
        400,
        '{"error": "ValidationError", "code": 400, "message": "passwo'
        'rd is not valid Unicode text: a lone surrogate at offset 1",'
        ' "params": {"field": "\'password\'", "offset": "1"}}',
    ),
    (
        "auth-register-empty", "POST", "/auth/register", {"password": "pw"},
        400,
        '{"error": "ValidationError", "code": 400, "message": "user n'
        'ame must be non-empty", "params": {"user": "\'\'"}}',
    ),
    (
        "pe-add-name-missing", "POST", "/registry/u/pe/add", {"peCode": "x"},
        400,
        '{"error": "ValidationError", "code": 400, "message": "peName'
        ' is required", "params": {"keys": "[\'peCode\']"}}',
    ),
    (
        "pe-add-code-missing", "POST", "/registry/u/pe/add", {"peName": "P", "peCode": ""},
        400,
        '{"error": "ValidationError", "code": 400, "message": "peCode'
        ' is required", "params": {"pe": "\'P\'"}}',
    ),
    (
        "pe-add-origin-lone-surrogate", "POST", "/registry/u/pe/add", {"peName": "P", "peCode": "x", "descriptionOrigin": LONE},
        400,
        '{"error": "ValidationError", "code": 400, "message": "descri'
        'ptionOrigin is not valid Unicode text: a lone surrogate at o'
        'ffset 1", "params": {"field": "\'descriptionOrigin\'", "offset'
        '": "1"}}',
    ),
    (
        "pe-add-imports", "POST", "/registry/u/pe/add", {"peName": "P", "peCode": "x", "peImports": "numpy"},
        400,
        '{"error": "ValidationError", "code": 400, "message": "peImpo'
        'rts must be an array of strings", "params": {"peImports": "\''
        'numpy\'"}}',
    ),
    (
        "pe-add-embedding-type", "POST", "/registry/u/pe/add", {"peName": "P", "peCode": "x", "codeEmbedding": [[1]]},
        400,
        '{"error": "ValidationError", "code": 400, "message": "codeEm'
        'bedding must be a non-empty array of numbers", "params": {"c'
        'odeEmbedding": "\'list\'"}}',
    ),
    (
        "pe-add-embedding-width", "POST", "/registry/u/pe/add", {"peName": "P", "peCode": "x", "descEmbedding": [1.0, 2.0]},
        400,
        '{"error": "ValidationError", "code": 400, "message": "descEm'
        'bedding must have 2048 dimensions, got 2", "params": {"descE'
        'mbeddingDim": "2"}}',
    ),
    (
        "workflow-add-entry-point-missing", "POST", "/registry/u/workflow/add", {"entryPoint": 0},
        400,
        '{"error": "ValidationError", "code": 400, "message": "entryP'
        'oint is required", "params": {"keys": "[\'entryPoint\']"}}',
    ),
    (
        "workflow-add-code-missing", "POST", "/registry/u/workflow/add", {"entryPoint": "w"},
        400,
        '{"error": "ValidationError", "code": 400, "message": "workfl'
        'owCode is required", "params": {"workflow": "\'w\'"}}',
    ),
    (
        "workflow-add-source-lone-surrogate", "POST", "/registry/u/workflow/add", {"entryPoint": "w", "workflowCode": "g", "workflowSource": LONE},
        400,
        '{"error": "ValidationError", "code": 400, "message": "workfl'
        'owSource is not valid Unicode text: a lone surrogate at offs'
        'et 1", "params": {"field": "\'workflowSource\'", "offset": "1"'
        '}}',
    ),
    (
        "workflow-add-pe-ids", "POST", "/registry/u/workflow/add", {"entryPoint": "w", "workflowCode": "g", "peIds": [1.5]},
        400,
        '{"error": "ValidationError", "code": 400, "message": "peIds '
        'must be an array of integers", "params": {"peIds": "[1.5]"}}',
    ),
    (
        "workflow-add-pe-ids-wide", "POST", "/registry/u/workflow/add", {"entryPoint": "w", "workflowCode": "g", "peIds": [WIDE]},
        400,
        '{"error": "ValidationError", "code": 400, "message": "peIds '
        'must fit in 64 bits, got 9223372036854775808", "params": {"p'
        'eIds": "[9223372036854775808]"}}',
    ),
    (
        "t3-search-type", "GET", "/registry/u/search/q/type/x", {},
        400,
        '{"error": "ValidationError", "code": 400, "message": "unknow'
        'n search type \'x\'", "params": {"type": "\'x\'"}, "details": "e'
        'xpected \'pe\', \'workflow\' or \'both\'"}',
    ),
    (
        "t3-search-query-type", "GET", "/registry/u/search/q/type/pe", {"queryType": "Hybrid"},
        400,
        '{"error": "ValidationError", "code": 400, "message": "unknow'
        'n query type \'hybrid\'", "params": {"queryType": "\'hybrid\'"},'
        ' "details": "expected \'text\', \'semantic\' or \'code\'"}',
    ),
    (
        "t3-search-k", "GET", "/registry/u/search/q/type/pe", {"k": -1},
        400,
        '{"error": "ValidationError", "code": 400, "message": "k must'
        ' be a positive integer, got -1", "params": {"k": "-1"}}',
    ),
    (
        "t3-search-k-wide", "GET", "/registry/u/search/q/type/both", {"k": 10**20},
        400,
        '{"error": "ValidationError", "code": 400, "message": "k must'
        ' fit in 64 bits, got 100000000000000000000", "params": {"k":'
        ' "100000000000000000000"}}',
    ),
    (
        "t3-search-embedding-type", "GET", "/registry/u/search/q/type/pe", {"queryType": "semantic", "queryEmbedding": 5},
        400,
        '{"error": "ValidationError", "code": 400, "message": "queryE'
        'mbedding must be a non-empty array of numbers", "params": {"'
        'queryEmbedding": "\'int\'"}}',
    ),
    (
        "t3-search-embedding-width", "GET", "/registry/u/search/q/type/pe", {"queryType": "semantic", "queryEmbedding": [1]},
        400,
        '{"error": "ValidationError", "code": 400, "message": "queryE'
        'mbedding must have 2048 dimensions, got 1", "params": {"quer'
        'yEmbeddingDim": "1"}}',
    ),
    (
        "run-ref-shape", "POST", "/execution/u/run", {"workflowRef": {"entryPoint": "w"}},
        400,
        '{"error": "ValidationError", "code": 400, "message": "workfl'
        'owRef must contain \'id\' or \'name\'", "params": {"workflowRef"'
        ': "{\'entryPoint\': \'w\'}"}}',
    ),
    (
        "run-ref-id-type", "POST", "/execution/u/run", {"workflowRef": {"id": "1.0"}},
        400,
        '{"error": "ValidationError", "code": 400, "message": "workfl'
        'owRef id must be an integer, got \'1.0\'", "params": {"workflo'
        'wRef": "{\'id\': \'1.0\'}"}}',
    ),
    (
        "run-ref-id-wide", "POST", "/execution/u/run", {"workflowRef": {"id": WIDE}},
        400,
        '{"error": "ValidationError", "code": 400, "message": "workfl'
        'owRef id must fit in 64 bits, got 9223372036854775808", "par'
        'ams": {"workflowRef": "{\'id\': 9223372036854775808}"}}',
    ),
    (
        "run-code-missing", "POST", "/execution/u/run", {},
        400,
        '{"error": "ValidationError", "code": 400, "message": "execut'
        'ion request missing \'workflowCode\'", "params": {"keys": "[]"'
        '}}',
    ),
    (
        "engine-name-missing", "POST", "/engines/u/register", {"engineName": "  "},
        400,
        '{"error": "ValidationError", "code": 400, "message": "engine'
        'Name is required"}',
    ),
    (
        "path-id", "GET", "/registry/u/pe/id/+1", {},
        400,
        '{"error": "ValidationError", "code": 400, "message": "path p'
        'arameter \'id\' must be an integer", "params": {"id": "\'+1\'"}}',
    ),
]


@pytest.fixture(scope="module")
def served(fast_bundle):
    server = LaminarServer(models=fast_bundle)
    credentials = {"userName": "u", "password": "pw"}
    server.dispatch(Request("POST", "/auth/register", credentials))
    token = server.dispatch(Request("POST", "/auth/login", credentials)).body[
        "token"
    ]
    return server, token


@pytest.mark.parametrize(
    "method, path, body, status, text",
    [pin[1:] for pin in PINS],
    ids=[pin[0] for pin in PINS],
)
def test_a_malformed_body_answers_its_pinned_bytes(
    served, request, method, path, body, status, text
):
    server, token = served
    headers = HEADERS.get(request.node.callspec.id)
    response = server.dispatch(
        Request(method, path, body, token=token, headers=headers)
    )
    assert (response.status, json.dumps(response.body)) == (status, text)


def test_no_pinned_request_stored_anything(served):
    """Every pinned request was refused before it reached the store."""
    server, _token = served
    assert server.registry.dao.mutation_counter() == 0
    assert [user.user_name for user in server.registry.all_users()] == ["u"]
