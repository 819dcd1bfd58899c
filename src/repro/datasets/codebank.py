'''The synthetic code bank: coding problems with multiple reference
implementations.

Each :class:`CodeProblem` bundles

* ``queries`` — web-search-style natural-language phrasings (CoSQA view),
* ``docstring`` — the canonical documentation sentence (CSN view),
* ``variants`` — two or more *genuinely different* implementations
  (different algorithms/idioms), the raw material for CodeNet-like clone
  clusters once :mod:`repro.datasets.mutate` renames identifiers.

The bank intentionally contains families of structurally similar
problems (several accumulate-in-a-loop problems, several recursive
problems, several regex problems...) so that purely structural models
face real confusion between different problems — the property that
separates MAP@100 from Precision@1 in Table 7.
'''

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CodeProblem:
    """One coding problem with NL views and implementation variants."""

    key: str
    title: str
    queries: tuple[str, ...]
    docstring: str
    tags: tuple[str, ...]
    variants: tuple[str, ...]


def _p(
    key: str,
    title: str,
    queries: list[str],
    docstring: str,
    tags: list[str],
    *variants: str,
) -> CodeProblem:
    cleaned = tuple(v.strip("\n") + "\n" for v in variants)
    return CodeProblem(
        key=key,
        title=title,
        queries=tuple(queries),
        docstring=docstring,
        tags=tuple(tags),
        variants=cleaned,
    )


PROBLEMS: list[CodeProblem] = [
    _p(
        "is_prime",
        "primality test",
        [
            "check if a number is prime",
            "python function to test whether an integer is prime",
            "determine if n is a prime number",
        ],
        "Check whether the given integer is a prime number.",
        ["math", "loop"],
        '''
def is_prime(num):
    """Check whether the given integer is a prime number."""
    if num < 2:
        return False
    for divisor in range(2, int(num ** 0.5) + 1):
        if num % divisor == 0:
            return False
    return True
''',
        '''
def is_prime(num):
    """Check whether the given integer is a prime number."""
    if num < 2:
        return False
    return all(num % candidate != 0 for candidate in range(2, num))
''',
        '''
def is_prime(num):
    """Check whether the given integer is a prime number."""
    if num in (2, 3):
        return True
    if num < 2 or num % 2 == 0:
        return False
    divisor = 3
    while divisor * divisor <= num:
        if num % divisor == 0:
            return False
        divisor += 2
    return True
''',
    ),
    _p(
        "gcd",
        "greatest common divisor",
        [
            "compute the greatest common divisor of two numbers",
            "python gcd of two integers",
            "euclidean algorithm implementation",
        ],
        "Return the greatest common divisor of two integers.",
        ["math", "loop"],
        '''
def gcd(first, second):
    """Return the greatest common divisor of two integers."""
    while second:
        first, second = second, first % second
    return first
''',
        '''
def gcd(first, second):
    """Return the greatest common divisor of two integers."""
    if second == 0:
        return first
    return gcd(second, first % second)
''',
    ),
    _p(
        "fibonacci",
        "fibonacci numbers",
        [
            "generate the first n fibonacci numbers",
            "python fibonacci sequence function",
            "compute fibonacci series up to n terms",
        ],
        "Return a list with the first n Fibonacci numbers.",
        ["math", "sequence"],
        '''
def fibonacci(count):
    """Return a list with the first n Fibonacci numbers."""
    sequence = []
    current, following = 0, 1
    for _ in range(count):
        sequence.append(current)
        current, following = following, current + following
    return sequence
''',
        '''
def fibonacci(count):
    """Return a list with the first n Fibonacci numbers."""
    if count <= 0:
        return []
    if count == 1:
        return [0]
    sequence = [0, 1]
    while len(sequence) < count:
        sequence.append(sequence[-1] + sequence[-2])
    return sequence
''',
    ),
    _p(
        "factorial",
        "factorial",
        [
            "calculate the factorial of a number",
            "python factorial function without math module",
            "compute n factorial recursively",
        ],
        "Return the factorial of a non-negative integer.",
        ["math", "recursion"],
        '''
def factorial(num):
    """Return the factorial of a non-negative integer."""
    result = 1
    for factor in range(2, num + 1):
        result *= factor
    return result
''',
        '''
def factorial(num):
    """Return the factorial of a non-negative integer."""
    if num <= 1:
        return 1
    return num * factorial(num - 1)
''',
    ),
    _p(
        "collatz",
        "collatz sequence length",
        [
            "length of the collatz sequence for n",
            "python collatz conjecture steps counter",
            "how many steps until collatz reaches one",
        ],
        "Count the steps for n to reach 1 in the Collatz process.",
        ["math", "loop"],
        '''
def collatz_steps(num):
    """Count the steps for n to reach 1 in the Collatz process."""
    steps = 0
    while num != 1:
        if num % 2 == 0:
            num //= 2
        else:
            num = 3 * num + 1
        steps += 1
    return steps
''',
        '''
def collatz_steps(num):
    """Count the steps for n to reach 1 in the Collatz process."""
    if num == 1:
        return 0
    if num % 2 == 0:
        return 1 + collatz_steps(num // 2)
    return 1 + collatz_steps(3 * num + 1)
''',
    ),
    _p(
        "prime_factors",
        "prime factorization",
        [
            "find the prime factors of an integer",
            "python prime factorization of a number",
            "decompose n into prime factors",
        ],
        "Return the list of prime factors of n in ascending order.",
        ["math", "loop"],
        '''
def prime_factors(num):
    """Return the list of prime factors of n in ascending order."""
    factors = []
    divisor = 2
    while divisor * divisor <= num:
        while num % divisor == 0:
            factors.append(divisor)
            num //= divisor
        divisor += 1
    if num > 1:
        factors.append(num)
    return factors
''',
        '''
def prime_factors(num):
    """Return the list of prime factors of n in ascending order."""
    factors = []
    candidate = 2
    while num > 1:
        if num % candidate == 0:
            factors.append(candidate)
            num //= candidate
        else:
            candidate += 1
    return factors
''',
    ),
    _p(
        "is_palindrome",
        "palindrome check",
        [
            "check if a string is a palindrome",
            "python palindrome test ignoring case",
            "determine whether text reads the same backwards",
        ],
        "Check whether the given string is a palindrome, ignoring case.",
        ["string"],
        '''
def is_palindrome(text):
    """Check whether the given string is a palindrome, ignoring case."""
    cleaned = text.lower()
    return cleaned == cleaned[::-1]
''',
        '''
def is_palindrome(text):
    """Check whether the given string is a palindrome, ignoring case."""
    cleaned = text.lower()
    left, right = 0, len(cleaned) - 1
    while left < right:
        if cleaned[left] != cleaned[right]:
            return False
        left += 1
        right -= 1
    return True
''',
    ),
    _p(
        "count_vowels",
        "vowel counting",
        [
            "count the vowels in a string",
            "python count how many vowels a sentence has",
            "number of vowels in text",
        ],
        "Count the vowels appearing in the given text.",
        ["string", "loop"],
        '''
def count_vowels(text):
    """Count the vowels appearing in the given text."""
    total = 0
    for char in text.lower():
        if char in "aeiou":
            total += 1
    return total
''',
        '''
def count_vowels(text):
    """Count the vowels appearing in the given text."""
    return sum(1 for char in text.lower() if char in "aeiou")
''',
    ),
    _p(
        "word_count",
        "word frequency count",
        [
            "count word frequencies in a text",
            "python word occurrence counter from string",
            "build a histogram of words",
        ],
        "Return a dictionary mapping each word to its frequency.",
        ["string", "dict"],
        '''
def word_count(text):
    """Return a dictionary mapping each word to its frequency."""
    counts = {}
    for word in text.lower().split():
        counts[word] = counts.get(word, 0) + 1
    return counts
''',
        '''
def word_count(text):
    """Return a dictionary mapping each word to its frequency."""
    from collections import defaultdict
    counts = defaultdict(int)
    for word in text.lower().split():
        counts[word] += 1
    return dict(counts)
''',
    ),
    _p(
        "reverse_words",
        "reverse word order",
        [
            "reverse the order of words in a sentence",
            "python reverse words but not letters",
            "flip sentence word order",
        ],
        "Return the sentence with its word order reversed.",
        ["string"],
        '''
def reverse_words(sentence):
    """Return the sentence with its word order reversed."""
    return " ".join(sentence.split()[::-1])
''',
        '''
def reverse_words(sentence):
    """Return the sentence with its word order reversed."""
    words = sentence.split()
    reversed_words = []
    while words:
        reversed_words.append(words.pop())
    return " ".join(reversed_words)
''',
    ),
    _p(
        "is_anagram",
        "anagram check",
        [
            "check if two strings are anagrams",
            "python anagram detector for two words",
            "determine whether two words use the same letters",
        ],
        "Check whether the two given strings are anagrams of each other.",
        ["string", "dict"],
        '''
def is_anagram(first, second):
    """Check whether the two given strings are anagrams of each other."""
    return sorted(first.lower()) == sorted(second.lower())
''',
        '''
def is_anagram(first, second):
    """Check whether the two given strings are anagrams of each other."""
    counts = {}
    for char in first.lower():
        counts[char] = counts.get(char, 0) + 1
    for char in second.lower():
        counts[char] = counts.get(char, 0) - 1
    return all(value == 0 for value in counts.values())
''',
    ),
    _p(
        "caesar_cipher",
        "caesar cipher",
        [
            "encrypt text with a caesar cipher",
            "python caesar cipher shift letters",
            "simple letter substitution cipher with shift",
        ],
        "Encrypt the text by shifting each letter by the given amount.",
        ["string", "loop"],
        '''
def caesar_cipher(text, shift):
    """Encrypt the text by shifting each letter by the given amount."""
    encrypted = []
    for char in text:
        if char.isalpha():
            base = ord("a") if char.islower() else ord("A")
            encrypted.append(chr((ord(char) - base + shift) % 26 + base))
        else:
            encrypted.append(char)
    return "".join(encrypted)
''',
        '''
def caesar_cipher(text, shift):
    """Encrypt the text by shifting each letter by the given amount."""
    def rotate(char):
        if not char.isalpha():
            return char
        base = ord("a") if char.islower() else ord("A")
        return chr((ord(char) - base + shift) % 26 + base)
    return "".join(rotate(char) for char in text)
''',
    ),
    _p(
        "levenshtein",
        "edit distance",
        [
            "compute the levenshtein distance between two strings",
            "python edit distance dynamic programming",
            "minimum edits to transform one word into another",
        ],
        "Compute the Levenshtein edit distance between two strings.",
        ["string", "dp"],
        '''
def levenshtein(first, second):
    """Compute the Levenshtein edit distance between two strings."""
    rows = len(first) + 1
    cols = len(second) + 1
    table = [[0] * cols for _ in range(rows)]
    for row in range(rows):
        table[row][0] = row
    for col in range(cols):
        table[0][col] = col
    for row in range(1, rows):
        for col in range(1, cols):
            cost = 0 if first[row - 1] == second[col - 1] else 1
            table[row][col] = min(
                table[row - 1][col] + 1,
                table[row][col - 1] + 1,
                table[row - 1][col - 1] + cost,
            )
    return table[-1][-1]
''',
        '''
def levenshtein(first, second):
    """Compute the Levenshtein edit distance between two strings."""
    previous = list(range(len(second) + 1))
    for row, left_char in enumerate(first, 1):
        current = [row]
        for col, right_char in enumerate(second, 1):
            cost = 0 if left_char == right_char else 1
            current.append(min(previous[col] + 1, current[-1] + 1, previous[col - 1] + cost))
        previous = current
    return previous[-1]
''',
    ),
    _p(
        "find_max",
        "maximum element",
        [
            "find the largest number in a list",
            "python maximum of a list without max builtin",
            "get the biggest element of an array",
        ],
        "Return the largest value in a non-empty list.",
        ["list", "loop"],
        '''
def find_max(values):
    """Return the largest value in a non-empty list."""
    largest = values[0]
    for value in values[1:]:
        if value > largest:
            largest = value
    return largest
''',
        '''
def find_max(values):
    """Return the largest value in a non-empty list."""
    largest = None
    for value in values:
        if largest is None or value > largest:
            largest = value
    return largest
''',
    ),
    _p(
        "moving_average",
        "moving average",
        [
            "compute the moving average of a list",
            "python sliding window mean over values",
            "rolling average with window size",
        ],
        "Return the moving averages of the values for the given window.",
        ["list", "numeric"],
        '''
def moving_average(values, window):
    """Return the moving averages of the values for the given window."""
    averages = []
    for start in range(len(values) - window + 1):
        chunk = values[start:start + window]
        averages.append(sum(chunk) / window)
    return averages
''',
        '''
def moving_average(values, window):
    """Return the moving averages of the values for the given window."""
    averages = []
    running = sum(values[:window])
    averages.append(running / window)
    for index in range(window, len(values)):
        running += values[index] - values[index - window]
        averages.append(running / window)
    return averages
''',
    ),
    _p(
        "flatten",
        "flatten nested list",
        [
            "flatten a nested list of lists",
            "python flatten arbitrarily nested lists",
            "turn nested lists into a flat list",
        ],
        "Flatten an arbitrarily nested list into a flat list.",
        ["list", "recursion"],
        '''
def flatten(nested):
    """Flatten an arbitrarily nested list into a flat list."""
    flat = []
    for item in nested:
        if isinstance(item, list):
            flat.extend(flatten(item))
        else:
            flat.append(item)
    return flat
''',
        '''
def flatten(nested):
    """Flatten an arbitrarily nested list into a flat list."""
    flat = []
    stack = list(nested)
    while stack:
        item = stack.pop(0)
        if isinstance(item, list):
            stack = list(item) + stack
        else:
            flat.append(item)
    return flat
''',
    ),
    _p(
        "chunk_list",
        "chunk a list",
        [
            "split a list into chunks of size n",
            "python partition list into equal sized chunks",
            "break an array into groups of n elements",
        ],
        "Split the list into consecutive chunks of the given size.",
        ["list"],
        '''
def chunk_list(values, size):
    """Split the list into consecutive chunks of the given size."""
    return [values[start:start + size] for start in range(0, len(values), size)]
''',
        '''
def chunk_list(values, size):
    """Split the list into consecutive chunks of the given size."""
    chunks = []
    current = []
    for value in values:
        current.append(value)
        if len(current) == size:
            chunks.append(current)
            current = []
    if current:
        chunks.append(current)
    return chunks
''',
    ),
    _p(
        "dedupe",
        "remove duplicates",
        [
            "remove duplicates from a list keeping order",
            "python deduplicate list preserve first occurrence",
            "unique elements of an array in order",
        ],
        "Remove duplicate items from the list, keeping first occurrences.",
        ["list", "set"],
        '''
def dedupe(values):
    """Remove duplicate items from the list, keeping first occurrences."""
    seen = set()
    unique = []
    for value in values:
        if value not in seen:
            seen.add(value)
            unique.append(value)
    return unique
''',
        '''
def dedupe(values):
    """Remove duplicate items from the list, keeping first occurrences."""
    unique = []
    for value in values:
        if value not in unique:
            unique.append(value)
    return unique
''',
    ),
    _p(
        "merge_sorted",
        "merge sorted lists",
        [
            "merge two sorted lists into one sorted list",
            "python merge step of merge sort",
            "combine two ordered arrays keeping order",
        ],
        "Merge two sorted lists into a single sorted list.",
        ["list", "loop"],
        '''
def merge_sorted(left, right):
    """Merge two sorted lists into a single sorted list."""
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged
''',
        '''
def merge_sorted(left, right):
    """Merge two sorted lists into a single sorted list."""
    merged = []
    left_copy = list(left)
    right_copy = list(right)
    while left_copy and right_copy:
        if left_copy[0] <= right_copy[0]:
            merged.append(left_copy.pop(0))
        else:
            merged.append(right_copy.pop(0))
    return merged + left_copy + right_copy
''',
    ),
    _p(
        "binary_search",
        "binary search",
        [
            "binary search for a value in a sorted list",
            "python binary search return index",
            "find element position in sorted array logarithmic",
        ],
        "Return the index of the target in a sorted list, or -1.",
        ["list", "search"],
        '''
def binary_search(values, target):
    """Return the index of the target in a sorted list, or -1."""
    low, high = 0, len(values) - 1
    while low <= high:
        mid = (low + high) // 2
        if values[mid] == target:
            return mid
        if values[mid] < target:
            low = mid + 1
        else:
            high = mid - 1
    return -1
''',
        '''
def binary_search(values, target, low=0, high=None):
    """Return the index of the target in a sorted list, or -1."""
    if high is None:
        high = len(values) - 1
    if low > high:
        return -1
    mid = (low + high) // 2
    if values[mid] == target:
        return mid
    if values[mid] < target:
        return binary_search(values, target, mid + 1, high)
    return binary_search(values, target, low, mid - 1)
''',
    ),
    _p(
        "quicksort",
        "quicksort",
        [
            "sort a list with quicksort",
            "python quicksort implementation",
            "recursive partition based sorting",
        ],
        "Sort the list in ascending order using quicksort.",
        ["list", "sort", "recursion"],
        '''
def quicksort(values):
    """Sort the list in ascending order using quicksort."""
    if len(values) <= 1:
        return list(values)
    pivot = values[len(values) // 2]
    smaller = [value for value in values if value < pivot]
    equal = [value for value in values if value == pivot]
    larger = [value for value in values if value > pivot]
    return quicksort(smaller) + equal + quicksort(larger)
''',
        '''
def quicksort(values):
    """Sort the list in ascending order using quicksort."""
    items = list(values)
    if len(items) <= 1:
        return items
    pivot = items.pop()
    smaller = [value for value in items if value <= pivot]
    larger = [value for value in items if value > pivot]
    return quicksort(smaller) + [pivot] + quicksort(larger)
''',
    ),
    _p(
        "bubble_sort",
        "bubble sort",
        [
            "sort a list with bubble sort",
            "python bubble sort swap adjacent elements",
            "simple quadratic sorting algorithm",
        ],
        "Sort the list in ascending order using bubble sort.",
        ["list", "sort", "loop"],
        '''
def bubble_sort(values):
    """Sort the list in ascending order using bubble sort."""
    items = list(values)
    for end in range(len(items) - 1, 0, -1):
        for index in range(end):
            if items[index] > items[index + 1]:
                items[index], items[index + 1] = items[index + 1], items[index]
    return items
''',
        '''
def bubble_sort(values):
    """Sort the list in ascending order using bubble sort."""
    items = list(values)
    swapped = True
    while swapped:
        swapped = False
        for index in range(len(items) - 1):
            if items[index] > items[index + 1]:
                items[index], items[index + 1] = items[index + 1], items[index]
                swapped = True
    return items
''',
    ),
    _p(
        "rotate_list",
        "rotate a list",
        [
            "rotate a list to the right by k positions",
            "python rotate array elements",
            "cyclic shift of list items",
        ],
        "Rotate the list to the right by the given number of positions.",
        ["list"],
        '''
def rotate_list(values, positions):
    """Rotate the list to the right by the given number of positions."""
    if not values:
        return []
    offset = positions % len(values)
    return values[-offset:] + values[:-offset] if offset else list(values)
''',
        '''
def rotate_list(values, positions):
    """Rotate the list to the right by the given number of positions."""
    items = list(values)
    for _ in range(positions % len(items) if items else 0):
        items.insert(0, items.pop())
    return items
''',
    ),
    _p(
        "invert_dict",
        "invert a dictionary",
        [
            "swap keys and values of a dictionary",
            "python invert dict mapping",
            "reverse a mapping so values become keys",
        ],
        "Invert the dictionary, mapping values back to their keys.",
        ["dict"],
        '''
def invert_dict(mapping):
    """Invert the dictionary, mapping values back to their keys."""
    return {value: key for key, value in mapping.items()}
''',
        '''
def invert_dict(mapping):
    """Invert the dictionary, mapping values back to their keys."""
    inverted = {}
    for key in mapping:
        inverted[mapping[key]] = key
    return inverted
''',
    ),
    _p(
        "group_by_key",
        "group records by key",
        [
            "group a list of pairs by their first element",
            "python group records by key into lists",
            "bucket items by a key function",
        ],
        "Group (key, value) pairs into a dict of key to value list.",
        ["dict", "loop"],
        '''
def group_by_key(pairs):
    """Group (key, value) pairs into a dict of key to value list."""
    groups = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return groups
''',
        '''
def group_by_key(pairs):
    """Group (key, value) pairs into a dict of key to value list."""
    from collections import defaultdict
    groups = defaultdict(list)
    for key, value in pairs:
        groups[key].append(value)
    return dict(groups)
''',
    ),
    _p(
        "most_common",
        "most common element",
        [
            "find the most common element in a list",
            "python mode of a list of values",
            "element with the highest frequency",
        ],
        "Return the most frequently occurring element of the list.",
        ["dict", "count"],
        '''
def most_common(values):
    """Return the most frequently occurring element of the list."""
    counts = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    best = None
    best_count = -1
    for value, count in counts.items():
        if count > best_count:
            best, best_count = value, count
    return best
''',
        '''
def most_common(values):
    """Return the most frequently occurring element of the list."""
    from collections import Counter
    counter = Counter(values)
    return counter.most_common(1)[0][0]
''',
    ),
    _p(
        "read_lines",
        "read file lines",
        [
            "read all lines from a text file",
            "python read file into list of stripped lines",
            "load a file line by line",
        ],
        "Read the file and return a list of stripped lines.",
        ["io"],
        '''
def read_lines(path):
    """Read the file and return a list of stripped lines."""
    with open(path) as handle:
        return [line.strip() for line in handle]
''',
        '''
def read_lines(path):
    """Read the file and return a list of stripped lines."""
    lines = []
    handle = open(path)
    try:
        for line in handle:
            lines.append(line.strip())
    finally:
        handle.close()
    return lines
''',
    ),
    _p(
        "count_lines",
        "count file lines",
        [
            "count the number of lines in a file",
            "python line counter for text files",
            "how many lines does a file contain",
        ],
        "Count the number of lines in the given file.",
        ["io", "count"],
        '''
def count_lines(path):
    """Count the number of lines in the given file."""
    with open(path) as handle:
        return sum(1 for _ in handle)
''',
        '''
def count_lines(path):
    """Count the number of lines in the given file."""
    total = 0
    with open(path) as handle:
        for _ in handle:
            total += 1
    return total
''',
    ),
    _p(
        "parse_json_field",
        "extract a json field",
        [
            "parse json and extract a field",
            "python load json string and read a key",
            "get value from json text by key",
        ],
        "Parse a JSON string and return the value stored under the key.",
        ["io", "json"],
        '''
def parse_json_field(payload, key):
    """Parse a JSON string and return the value stored under the key."""
    import json
    document = json.loads(payload)
    return document.get(key)
''',
        '''
def parse_json_field(payload, key):
    """Parse a JSON string and return the value stored under the key."""
    import json
    try:
        return json.loads(payload)[key]
    except KeyError:
        return None
''',
    ),
    _p(
        "celsius_to_fahrenheit",
        "temperature conversion",
        [
            "convert celsius to fahrenheit",
            "python temperature conversion function",
            "celsius fahrenheit formula code",
        ],
        "Convert a temperature from Celsius to Fahrenheit.",
        ["numeric"],
        '''
def celsius_to_fahrenheit(celsius):
    """Convert a temperature from Celsius to Fahrenheit."""
    return celsius * 9 / 5 + 32
''',
        '''
def celsius_to_fahrenheit(celsius):
    """Convert a temperature from Celsius to Fahrenheit."""
    ratio = 9 / 5
    return celsius * ratio + 32
''',
    ),
    _p(
        "std_dev",
        "standard deviation",
        [
            "compute the standard deviation of a list",
            "python population standard deviation",
            "spread of values around the mean",
        ],
        "Compute the population standard deviation of the values.",
        ["numeric", "math"],
        '''
def std_dev(values):
    """Compute the population standard deviation of the values."""
    mean = sum(values) / len(values)
    variance = sum((value - mean) ** 2 for value in values) / len(values)
    return variance ** 0.5
''',
        '''
def std_dev(values):
    """Compute the population standard deviation of the values."""
    count = len(values)
    mean = sum(values) / count
    total = 0.0
    for value in values:
        total += (value - mean) * (value - mean)
    return (total / count) ** 0.5
''',
    ),
    _p(
        "dot_product",
        "dot product",
        [
            "compute the dot product of two vectors",
            "python inner product of two lists",
            "sum of elementwise products",
        ],
        "Compute the dot product of two equal-length vectors.",
        ["numeric", "math"],
        '''
def dot_product(left, right):
    """Compute the dot product of two equal-length vectors."""
    return sum(a * b for a, b in zip(left, right))
''',
        '''
def dot_product(left, right):
    """Compute the dot product of two equal-length vectors."""
    total = 0
    for index in range(len(left)):
        total += left[index] * right[index]
    return total
''',
    ),
    _p(
        "transpose",
        "matrix transpose",
        [
            "transpose a matrix represented as nested lists",
            "python swap rows and columns of a matrix",
            "matrix transposition without numpy",
        ],
        "Transpose a matrix given as a list of rows.",
        ["numeric", "list"],
        '''
def transpose(matrix):
    """Transpose a matrix given as a list of rows."""
    return [list(row) for row in zip(*matrix)]
''',
        '''
def transpose(matrix):
    """Transpose a matrix given as a list of rows."""
    rows = len(matrix)
    cols = len(matrix[0]) if matrix else 0
    result = [[None] * rows for _ in range(cols)]
    for r in range(rows):
        for c in range(cols):
            result[c][r] = matrix[r][c]
    return result
''',
    ),
    _p(
        "roman_numerals",
        "integer to roman numerals",
        [
            "convert an integer to roman numerals",
            "python number to roman numeral string",
            "roman numeral encoder",
        ],
        "Convert a positive integer into its Roman numeral string.",
        ["string", "math"],
        '''
def to_roman(num):
    """Convert a positive integer into its Roman numeral string."""
    table = [
        (1000, "M"), (900, "CM"), (500, "D"), (400, "CD"),
        (100, "C"), (90, "XC"), (50, "L"), (40, "XL"),
        (10, "X"), (9, "IX"), (5, "V"), (4, "IV"), (1, "I"),
    ]
    pieces = []
    for value, symbol in table:
        while num >= value:
            pieces.append(symbol)
            num -= value
    return "".join(pieces)
''',
        '''
def to_roman(num):
    """Convert a positive integer into its Roman numeral string."""
    values = (1000, 900, 500, 400, 100, 90, 50, 40, 10, 9, 5, 4, 1)
    symbols = ("M", "CM", "D", "CD", "C", "XC", "L", "XL", "X", "IX", "V", "IV", "I")
    output = ""
    for index, value in enumerate(values):
        count, num = divmod(num, value)
        output += symbols[index] * count
    return output
''',
    ),
    _p(
        "leap_year",
        "leap year check",
        [
            "check whether a year is a leap year",
            "python leap year rule implementation",
            "is the given year a leap year",
        ],
        "Check whether the given year is a leap year.",
        ["math"],
        '''
def is_leap_year(year):
    """Check whether the given year is a leap year."""
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
''',
        '''
def is_leap_year(year):
    """Check whether the given year is a leap year."""
    if year % 400 == 0:
        return True
    if year % 100 == 0:
        return False
    return year % 4 == 0
''',
    ),
    _p(
        "find_emails",
        "extract email addresses",
        [
            "extract email addresses from text",
            "python regex to find emails in a string",
            "scan text for e-mail addresses",
        ],
        "Extract all email addresses appearing in the text.",
        ["string", "regex"],
        '''
def find_emails(text):
    """Extract all email addresses appearing in the text."""
    import re
    return re.findall(r"[\\w.+-]+@[\\w-]+\\.[\\w.]+", text)
''',
        '''
def find_emails(text):
    """Extract all email addresses appearing in the text."""
    import re
    pattern = re.compile(r"[\\w.+-]+@[\\w-]+\\.[\\w.]+")
    return [match.group() for match in pattern.finditer(text)]
''',
    ),
    _p(
        "slugify",
        "slugify a title",
        [
            "convert a title into a url slug",
            "python slugify string lowercase hyphens",
            "make text url friendly",
        ],
        "Convert the text into a lowercase hyphen-separated URL slug.",
        ["string", "regex"],
        '''
def slugify(text):
    """Convert the text into a lowercase hyphen-separated URL slug."""
    import re
    lowered = text.lower()
    cleaned = re.sub(r"[^a-z0-9]+", "-", lowered)
    return cleaned.strip("-")
''',
        '''
def slugify(text):
    """Convert the text into a lowercase hyphen-separated URL slug."""
    pieces = []
    word = []
    for char in text.lower():
        if char.isalnum():
            word.append(char)
        elif word:
            pieces.append("".join(word))
            word = []
    if word:
        pieces.append("".join(word))
    return "-".join(pieces)
''',
    ),
    _p(
        "running_total",
        "cumulative sums",
        [
            "compute the running total of a list",
            "python cumulative sum without numpy",
            "prefix sums of an array",
        ],
        "Return the list of running totals (prefix sums) of the values.",
        ["list", "numeric"],
        '''
def running_total(values):
    """Return the list of running totals (prefix sums) of the values."""
    totals = []
    accumulator = 0
    for value in values:
        accumulator += value
        totals.append(accumulator)
    return totals
''',
        '''
def running_total(values):
    """Return the list of running totals (prefix sums) of the values."""
    from itertools import accumulate
    return list(accumulate(values))
''',
    ),
    _p(
        "second_largest",
        "second largest value",
        [
            "find the second largest number in a list",
            "python second maximum of an array",
            "runner up value in a list",
        ],
        "Return the second largest distinct value in the list.",
        ["list", "loop"],
        '''
def second_largest(values):
    """Return the second largest distinct value in the list."""
    largest = runner_up = None
    for value in values:
        if largest is None or value > largest:
            runner_up = largest
            largest = value
        elif value != largest and (runner_up is None or value > runner_up):
            runner_up = value
    return runner_up
''',
        '''
def second_largest(values):
    """Return the second largest distinct value in the list."""
    distinct = sorted(set(values))
    return distinct[-2] if len(distinct) >= 2 else None
''',
    ),
    _p(
        "is_armstrong",
        "armstrong number check",
        [
            "check if a number is an armstrong number",
            "python narcissistic number test",
            "sum of digit powers equals the number",
        ],
        "Check whether the number equals the sum of its digits raised to the digit count.",
        ["math", "digits"],
        '''
def is_armstrong(num):
    """Check whether the number equals the sum of its digits raised to the digit count."""
    digits = str(num)
    power = len(digits)
    return num == sum(int(digit) ** power for digit in digits)
''',
        '''
def is_armstrong(num):
    """Check whether the number equals the sum of its digits raised to the digit count."""
    remaining = num
    digits = []
    while remaining > 0:
        digits.append(remaining % 10)
        remaining //= 10
    power = len(digits)
    total = 0
    for digit in digits:
        total += digit ** power
    return total == num
''',
    ),
    _p(
        "digit_sum",
        "sum of digits",
        [
            "sum the digits of an integer",
            "python digit sum of a number",
            "add up all digits in n",
        ],
        "Return the sum of the decimal digits of the number.",
        ["math", "digits"],
        '''
def digit_sum(num):
    """Return the sum of the decimal digits of the number."""
    return sum(int(digit) for digit in str(abs(num)))
''',
        '''
def digit_sum(num):
    """Return the sum of the decimal digits of the number."""
    remaining = abs(num)
    total = 0
    while remaining:
        total += remaining % 10
        remaining //= 10
    return total
''',
    ),
    _p(
        "swap_case",
        "swap letter case",
        [
            "swap uppercase and lowercase in a string",
            "python invert character case",
            "toggle case of every letter",
        ],
        "Return the string with the case of every letter swapped.",
        ["string"],
        '''
def swap_case(text):
    """Return the string with the case of every letter swapped."""
    return "".join(
        char.lower() if char.isupper() else char.upper() for char in text
    )
''',
        '''
def swap_case(text):
    """Return the string with the case of every letter swapped."""
    swapped = []
    for char in text:
        if char.isupper():
            swapped.append(char.lower())
        else:
            swapped.append(char.upper())
    return "".join(swapped)
''',
    ),
    _p(
        "clamp",
        "clamp a value",
        [
            "clamp a number between a minimum and maximum",
            "python clip value into range",
            "bound a value to an interval",
        ],
        "Clamp the value into the inclusive range [low, high].",
        ["numeric"],
        '''
def clamp(value, low, high):
    """Clamp the value into the inclusive range [low, high]."""
    return max(low, min(high, value))
''',
        '''
def clamp(value, low, high):
    """Clamp the value into the inclusive range [low, high]."""
    if value < low:
        return low
    if value > high:
        return high
    return value
''',
    ),
    _p(
        "histogram_bins",
        "histogram binning",
        [
            "bin values into equal width histogram buckets",
            "python histogram counts without numpy",
            "count values per interval",
        ],
        "Count how many values fall into each of n equal-width bins.",
        ["numeric", "count"],
        '''
def histogram_bins(values, n_bins, low, high):
    """Count how many values fall into each of n equal-width bins."""
    width = (high - low) / n_bins
    counts = [0] * n_bins
    for value in values:
        index = int((value - low) / width)
        if index == n_bins:
            index -= 1
        if 0 <= index < n_bins:
            counts[index] += 1
    return counts
''',
        '''
def histogram_bins(values, n_bins, low, high):
    """Count how many values fall into each of n equal-width bins."""
    counts = [0 for _ in range(n_bins)]
    span = high - low
    for value in values:
        if low <= value <= high:
            position = (value - low) / span
            index = min(int(position * n_bins), n_bins - 1)
            counts[index] += 1
    return counts
''',
    ),
    _p(
        "max_subarray",
        "maximum subarray sum",
        [
            "find the maximum sum of a contiguous subarray",
            "python kadane algorithm implementation",
            "largest contiguous sum in an array",
        ],
        "Return the maximum sum over all contiguous subarrays.",
        ["list", "dp"],
        '''
def max_subarray(values):
    """Return the maximum sum over all contiguous subarrays."""
    best = values[0]
    current = values[0]
    for value in values[1:]:
        current = max(value, current + value)
        best = max(best, current)
    return best
''',
        '''
def max_subarray(values):
    """Return the maximum sum over all contiguous subarrays."""
    best = None
    for start in range(len(values)):
        total = 0
        for end in range(start, len(values)):
            total += values[end]
            if best is None or total > best:
                best = total
    return best
''',
    ),
    _p(
        "binary_to_decimal",
        "binary string to integer",
        [
            "convert a binary string to a decimal number",
            "python parse base two representation",
            "binary to integer without int builtin",
        ],
        "Convert a binary digit string into its decimal value.",
        ["string", "math"],
        '''
def binary_to_decimal(bits):
    """Convert a binary digit string into its decimal value."""
    value = 0
    for bit in bits:
        value = value * 2 + (1 if bit == "1" else 0)
    return value
''',
        '''
def binary_to_decimal(bits):
    """Convert a binary digit string into its decimal value."""
    total = 0
    for position, bit in enumerate(reversed(bits)):
        if bit == "1":
            total += 2 ** position
    return total
''',
    ),
    _p(
        "common_elements",
        "intersection of two lists",
        [
            "find the common elements of two lists",
            "python intersection of two arrays keeping order",
            "shared items between two sequences",
        ],
        "Return the elements of the first list that also occur in the second.",
        ["list", "set"],
        '''
def common_elements(first, second):
    """Return the elements of the first list that also occur in the second."""
    lookup = set(second)
    return [value for value in first if value in lookup]
''',
        '''
def common_elements(first, second):
    """Return the elements of the first list that also occur in the second."""
    shared = []
    for value in first:
        for candidate in second:
            if value == candidate:
                shared.append(value)
                break
    return shared
''',
    ),
    _p(
        "title_case",
        "title case a sentence",
        [
            "capitalize the first letter of every word",
            "python title case without str title",
            "make each word start with a capital letter",
        ],
        "Capitalize the first letter of every word in the sentence.",
        ["string"],
        '''
def title_case(sentence):
    """Capitalize the first letter of every word in the sentence."""
    return " ".join(
        word[:1].upper() + word[1:] for word in sentence.split(" ")
    )
''',
        '''
def title_case(sentence):
    """Capitalize the first letter of every word in the sentence."""
    words = []
    for word in sentence.split(" "):
        if word:
            words.append(word[0].upper() + word[1:])
        else:
            words.append(word)
    return " ".join(words)
''',
    ),
]


#: quick lookup by problem key
PROBLEM_INDEX: dict[str, CodeProblem] = {p.key: p for p in PROBLEMS}


def all_canonical_sources() -> list[str]:
    """Every variant of every problem — the fitting/"pretraining" corpus."""
    return [variant for problem in PROBLEMS for variant in problem.variants]
